"""The bytes of two `pstchain reproduce` runs and of single subcommands.

The products are meant to be bitwise reproducible within a version, so any
change to a product byte shows up here as a changed sha256.  The small run
(N = 9) is fast; the second is the production size (N = 31, 100
realizations, about a second).  The subcommand
runs set the header fields that `reproduce` leaves at their defaults:
amplitude, search tolerance, no_adjust, normalize, grids and disorder.  A
change that alters bytes on purpose updates these pins and records in
CHANGES.md a numeric diff of the old and new files together with the
tolerance it was checked against.
"""

import hashlib

import pytest

from pstchain.cli import EXIT_OK, main

PINNED_SHA256 = {
    "chain_linear.csv": "56e94624783b9f7edbda229365ecbeec366db7cf12c4d7710b81777641dd3b37",
    "chain_quadratic.csv": "4208414268c5913609d2464375466f4f713fed3f8b8fae9cce77a99be95e3c94",
    "chain_quadratic_boundary.csv": "bb6462271d6cde18ac57733890753589b0bf91238d4fd03e9ff25a8e5b5c3518",
    "chain_sqrt_boundary.csv": "ec398c8f533c5d6baae4e70883347d9d0c709c840ef02272b3003b44a227c452",
    "chain_sqrt_center.csv": "b3e0f977e66e1aa01072988c3a24480a9898a400d7277a60d2b78d85d4dd4c9d",
    "echoes_linear.csv": "acc3e37eb23a9fd442ffc5057bafb0299da6681bd4885fd0e62cf64aa04ed0ed",
    "echoes_quadratic.csv": "23a1e99559c157b9374aaacfac424d0613bf9a565390853b64208dde0f35f8b1",
    "echoes_quadratic_boundary.csv": "34cb8b038e0911f66dfe77cbd916adb074f7e192575ede3c1dd544751fa7744f",
    "echoes_sqrt_boundary.csv": "9a5a0cdb87898e5c138058593345bc14a134921b22cbb86597c45a6070f3dd1b",
    "echoes_sqrt_center.csv": "a97d74f2fe797a35ce2d5806d94b5bad67fda7caab34cee578828e7d0891b8b3",
    "ensemble_trace_linear.csv": "9c34266a5015df988d7ca2fa72b363f0ed9be5453e251b744ea980a4cea6f5a2",
    "ensemble_trace_quadratic.csv": "be83b59481f7efbab20fc2f7134bc10513ecc0f286a7f0b85e05232936384c21",
    "ensemble_trace_quadratic_boundary.csv": "587296207cc77305f796e5277b62d11bc9bbfb79e2477a605dccc5f81edb20a0",
    "ensemble_trace_sqrt_boundary.csv": "f1c5b5323103e8d2747975ec33d89d32176c8efb64dadb3d1bce89313e5d6c5c",
    "ensemble_trace_sqrt_center.csv": "433ec88853cef67c88e0ab7abef480ac5002416b6298dcb2473690dea84657af",
    "level_shifts_linear.csv": "699b929d4b848f553ad132871343d6bd169d149c9d4cace89a5b745ae1cf1dd5",
    "level_shifts_quadratic.csv": "e963e95f15378162abdcc8a24c4f33b55561a993ff73a8fa71a7a4df6fce3120",
    "level_shifts_quadratic_boundary.csv": "131f553a44947ccdf6082d1922a62f6ed74933acf3e21b50fec5e37b2e4d9ed6",
    "level_shifts_sqrt_boundary.csv": "1f358138079871b3aa48b4d7881aa97f7f3a5f535d9c01d4f18dd6dbb01d8f99",
    "level_shifts_sqrt_center.csv": "93a9a7762e9e9c2253909671aeec638ea738230b690fe71f530af3b5b8be56d4",
    "localization_linear.csv": "02d8ab99b1442ed6e6bc6401ce090c4fdfbbc0a582df8588efa099a01ec59989",
    "localization_quadratic.csv": "592e09254429431ad10604fe39eb3d8918fc30cbb3400bbf92d081c4e2857c57",
    "localization_quadratic_boundary.csv": "92dbf26e4a8037cd60fe5661d7706fdd80dfb8835c03a46efaf08976eaa27792",
    "localization_sqrt_boundary.csv": "36badc9fa26633b5910cd0c36e2bd216bb949a3ea5eb4c32f36195c9fe62f641",
    "localization_sqrt_center.csv": "a33d74265a712ffe49893a5ae545266865a5c0e017450668ab3de409c53b9fc3",
    "spectrum_linear.csv": "9fbb3285b1a0c071a9f6554b26e2c45150a70a774a296ec5137fa4e6bbd6f43d",
    "spectrum_quadratic.csv": "a9164d84c28f11b575dff137702c651ecf9e7bd72c4baa0e2f000897670d70a2",
    "spectrum_quadratic_boundary.csv": "e4956393819c30662e0c97bb340092869e800cbacb3c09556c0eeb9137cd6b1d",
    "spectrum_sqrt_boundary.csv": "1b67ef10e6b1d3e7a8d812e1caccb74a046cb4a36974686a5f06e5e586c7693c",
    "spectrum_sqrt_center.csv": "e954b8a66703495b75a5abc65019f51b9d634df05292fb12436ef8fd8eb46e16",
    "strength_sweep_linear.csv": "212399f5bc7351f9dcf89da454252b94aea79ba6b5ddfa2028311cd60edde4d5",
    "strength_sweep_quadratic.csv": "ca2eda28414da144a4754a94eabb7ed61d747ac7c3e44256b46269a84a0248a9",
    "strength_sweep_quadratic_boundary.csv": "c7f53a42fe69901c0f5f9d721c48c2bd8861d69bffe4496814e7c6d5dade04db",
    "strength_sweep_sqrt_boundary.csv": "8cc1ecc521c97155f4e88d07fb0282e8e88644e96cb470656246d36c264ff2c2",
    "strength_sweep_sqrt_center.csv": "0d4a6070b28854e34572d93be435c46891c2e8dd77c7863d61fe54208032cc0c",
    "trace_linear.csv": "aa3350961b44b7b706e2786f838f4f09d97c6c7fbdbcdd6ca2f006a17ff47373",
    "trace_quadratic.csv": "90f8fe05401272a47ba81226378acbbb6788f1f600e090604202f39e844522be",
    "trace_quadratic_boundary.csv": "7fe10adba7c39d6dce0ce6d511db478939a254d7f221be85a0e93181f06e2293",
    "trace_sqrt_boundary.csv": "b97200ae7b108781161f140a73020b9fed59717ca40d06da720c7eb76bcf4f85",
    "trace_sqrt_center.csv": "8c39d7c79c9e3d9ec3789e062c00981c4d0ebeba51d99df435ccb191e25c6f03",
    "window_linear.csv": "7d9ce684066773ebf420446f458476ad4014ae3a5c786d7ed192bd180e6dce8b",
    "window_quadratic.csv": "8a6bf800613ec3fed1a3ffcef29da3075b0ff76e0e35eb5b8d9fea65f69fd4bc",
    "window_quadratic_boundary.csv": "04773d523f7dd9a31f95d4c5f0e0190a7733f87959d7f6daae9435e947127170",
    "window_sqrt_boundary.csv": "bdcda3aaad4382704b245636aab651b904e9e782b5736b9758cb52f5223c874f",
    "window_sqrt_center.csv": "bf2d1d797f44dcb6a2e6d8296855eca598cbc1287479bace703a55cb57f98d4d",
}

PINNED_SHA256_N31 = {
    "chain_linear.csv": "ff9e91982968d6c5ca65188b4029783cd843db51a9cf52a00bf57558d6ab2fda",
    "chain_quadratic.csv": "4d4cd6107bae75942e4dddc7aa3a07cc2fd657cce058e0de162c3dc7e3a86961",
    "chain_quadratic_boundary.csv": "ba88a7dae645202679f279be43886c1b167b783a4563baed706888fb5c25647a",
    "chain_sqrt_boundary.csv": "1906348f8fa57aaf1bd17aed1eb15a0e5dab09a6de497339c935ef7ee0296f17",
    "chain_sqrt_center.csv": "a0f30590099bb8c8cecb35502ee92aeff9c069ec880eb5f49b856941901a4f8e",
    "echoes_linear.csv": "13c61a5e48fc793ce0075d1cf9404cccd517e54c3e8a2a9c3eb009bf56e7f78d",
    "echoes_quadratic.csv": "e7f642060505c0763b15db6f1e7741b08db9e1bc2c3ab3598baac6ccec0e9929",
    "echoes_quadratic_boundary.csv": "a9a162334ae2fa5be5da1e9adf58ccb8ff97ea72b1ef1279b1ab5b332e02dc7c",
    "echoes_sqrt_boundary.csv": "971e04f24d0a4ded0c673f025164cc2b371605abc24c7849b6b189ffa0b2afba",
    "echoes_sqrt_center.csv": "781ee7d648bf8f8860036d0572acfe600fd887603ab80f15dc125be24cfa2d12",
    "ensemble_trace_linear.csv": "9c659364417a10e6051f4ac278df96aaee55d305ff34e1d083cf9915eadec721",
    "ensemble_trace_quadratic.csv": "003194d281549690e70a6c704f4208b6290f66ddbf6bbfde29e8133cabb18652",
    "ensemble_trace_quadratic_boundary.csv": "b046c6abd202467c2754a30e464d8937f2943161176b4c895f3ab8241605f715",
    "ensemble_trace_sqrt_boundary.csv": "58c9793f8f6cb37453c83efe7f202e860816a1f20ad76db30a65579fb5f4c396",
    "ensemble_trace_sqrt_center.csv": "5ad017a471ee76caf8af9c89e018dacf1aa57164f885a08196df802c45fe5f16",
    "level_shifts_linear.csv": "e1dd7cd9cd68eee29434e5aec1e85b3379a5fecbd186e626950643bb0e444b55",
    "level_shifts_quadratic.csv": "9bd6401e6aaacd2b11c648ec7a1f2bdbd36aa76a1f3e67d52d6c9d7c471c8816",
    "level_shifts_quadratic_boundary.csv": "bb82fa2b45db4fd0b3309a120e861e52a82c1bb7d797bd44383aa1a3ef7a7480",
    "level_shifts_sqrt_boundary.csv": "1420164c370aefa1997e8c62e2233556c4c8a310f18a87fd6409fd984ec01889",
    "level_shifts_sqrt_center.csv": "3fbb33a870a34435d6d56c7e1d93426619fc909bb2de9f62cb249b891b5c2904",
    "localization_linear.csv": "5af5027e819a5e41b9badb48ffc0859f7ebc59ce6cbe02682a7c7f7e6b81a964",
    "localization_quadratic.csv": "df1a116f19e390b91f34e328a3ab0b5848064b172de62fd344e07e525f5927b1",
    "localization_quadratic_boundary.csv": "4f95aab0a687d6bf2ae0a46a7490125688e46f9319dd75a024d5119cb4009a2c",
    "localization_sqrt_boundary.csv": "0259d2d5a939054238dddf36c4f46412ecc58cac07af3e94c9ab1e46d5e89e2a",
    "localization_sqrt_center.csv": "9b5f9838f07ddf398ac530871d9396f8678146ef0e37419a3dae3a3ee0b73325",
    "spectrum_linear.csv": "ae738c33ec1e8b7627256faa14ca884e901781174f56e258ff8d80fed5868d21",
    "spectrum_quadratic.csv": "ec46e8aff0208fb6edd02298781201b9c06be201bbee19a880abe7e33c56cb85",
    "spectrum_quadratic_boundary.csv": "d627a604eb65f996aef4359b4ed9456b9c254c953013742e25f9262a32956bed",
    "spectrum_sqrt_boundary.csv": "687025d28dec57827dcfc162e96ecd688ff0ffed812c290206a73a11bb9e6d8f",
    "spectrum_sqrt_center.csv": "468c4409a0ed2e08aac79541d45ebcd496dff7ada6b40954a60c4b00331f50d3",
    "strength_sweep_linear.csv": "eeb7546159308e42b44d9d4368d2bf681f671bbecccd050ad1a9acfca4948211",
    "strength_sweep_quadratic.csv": "8b267b0a3b3e96ecb7f997a829d408708618d575b80de91c3cd342b335fd43fd",
    "strength_sweep_quadratic_boundary.csv": "50c076fa0d5018182f455ec0e41cc08ae24e549b9aa23224b2654a964070d4a7",
    "strength_sweep_sqrt_boundary.csv": "14244c9cd801541ff9a19140a64cdd52efa30ace57570a732836f1815e7c99d2",
    "strength_sweep_sqrt_center.csv": "6542811e6a077be62cd80cc19ae0ecc8e403bd1beef1f9e3436c8a00e8ebb9ef",
    "trace_linear.csv": "0ee888f5b67f97873a270bb41b96b21cc51473f298a92d9c7f832182732b26f0",
    "trace_quadratic.csv": "03e90dec4b7d855fe58c43232be68a9bfc99a258d1147def777e5611c43ef537",
    "trace_quadratic_boundary.csv": "9074d87cce53ee34a3a36974eb6bec73e300480a33fc10ff1cfa61780c8ec9af",
    "trace_sqrt_boundary.csv": "fba006c464566e39fb2915c17d42cbdb825b66008125aecf7c71548ae13fb61e",
    "trace_sqrt_center.csv": "b78fc1dd3440c9b1014621524336dcac98b741b6c03a6eba022c0303842e2b91",
    "window_linear.csv": "1d42e67993a5a376084a98576f3f365645fa7caa14dc816626a4de876f69ef4e",
    "window_quadratic.csv": "93c1a6ab60d85ba1fe5bb4b24817733c4916cb1dee10926358ea479748334026",
    "window_quadratic_boundary.csv": "591fb31f699c61af6be55726517efa70b7498e441e1de11c140d535663f6cf15",
    "window_sqrt_boundary.csv": "4024d96791cbc64e0b66ac948f3f8214200c596e7c95d692ae547abb54106640",
    "window_sqrt_center.csv": "202fc9daa35cd5a963e11e49cb8e8fae59cd703c643bb6f95f23f18f345c74f9",
}

SUBCOMMAND_SHA256 = {
    "spectrum --family center --alpha 0.5 --n 15":
        "6136e0be83fd1e5a2da1d19330e4487948ee98d0e0bcf069089c06e965f907c6",
    "spectrum --family center --alpha 1 --n 15 --no-adjust":
        "af6ee60ada1bb818f8f11d0d69f3dd87238f3e74bd293f3d6f168f9667ce3ae5",
    "chain --family boundary --alpha 2 --n 15 --amplitude 2.5":
        "aba9c849cbc30349c61f8029170b6c057ffe684ce049fe0046bfc844a55421e0",
    "chain --family boundary --alpha 0.5 --n 15 --no-normalize --base-search-tolerance 1e-3":
        "fb33fa7819ff3fc7f6ce3fd03d8614c10e63d2e4eb1fc6e8466d0b7996979d11",
    "simulate --family center --alpha 2 --n 11 --periods 1.5 --points-per-period 300":
        "2ee1f9d48200b3427fa5ca7876a197f2de21f2b6d982934b51737370d423f87a",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3":
        "5f4dc4292175902951daf128e27513b2bd2e50be52b353b983710faf3995b918",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --echoes 4":
        "d91c334cece144653feecadcc652af396a138449ae93125b8add5c755eb94fb8",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --sweep 0.05,0.1":
        "fc4379587dfd6359668a0b0d3ef23a0186c12ab311520cd4cd176b6beea02629",
    "analyze --family center --alpha 2 --n 11 --localization":
        "bee407212b907d943eb64228b3e676771927facab57860431df42a6d85985583",
    "analyze --family center --alpha 2 --n 11 --level-shifts --eps 0.02 --nav 10 --seed 3":
        "3edfb2d2ab977c40c687b45c2b2de549bb778c49244523bfa3043a929025f0b7",
    "analyze --family center --alpha 2 --n 11 --window":
        "46418732c96470266f5ed9f9555d7e6f901fb2970c57dfe488ef4e00bfd0732f",
}


def _check_reproduce(tmp_path, argv, pins):
    code = main(["reproduce", "--outdir", str(tmp_path), *argv])
    assert code == EXIT_OK
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    changed = sorted(name for name in pins if digests.get(name) != pins[name])
    assert sorted(digests) == sorted(pins)
    assert changed == []


def test_reproduce_bytes_match_pins(tmp_path):
    _check_reproduce(tmp_path, ["--n", "9", "--nav", "5", "--seed", "3"], PINNED_SHA256)


def test_production_size_reproduce_bytes_match_pins(tmp_path):
    _check_reproduce(tmp_path, ["--n", "31", "--nav", "100", "--seed", "7"], PINNED_SHA256_N31)


@pytest.mark.parametrize("command", SUBCOMMAND_SHA256)
def test_subcommand_bytes_match_pins(tmp_path, command):
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUBCOMMAND_SHA256[command]
