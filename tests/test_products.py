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
    "echoes_linear.csv": "520e54cc97ecaa5d04d442805cd6e580b1614a50e2165c9923b8d06f2793bbc6",
    "echoes_quadratic.csv": "999ebddf1cfc6e42de3ee5c2502a2b96c3799704a90d35a325da92b076e5cf4d",
    "echoes_quadratic_boundary.csv": "ccc9b727dcfa1abe600b3cfec2510b9b0ecaaa7ad20c0076beec3da7309d6088",
    "echoes_sqrt_boundary.csv": "da2f959503e7d4fb4daf7b13db6a1c20319c502904e9df47025af083fcbceff2",
    "echoes_sqrt_center.csv": "e8307a2fec17bc11c63f76d0ca86a9626b8ca23e55aaa1e9ab45612d5a7efa90",
    "ensemble_trace_linear.csv": "53cc2e1f7e061f271a61dfbc9af21f42a35910629660ce4a28d6dc073f5b5e80",
    "ensemble_trace_quadratic.csv": "7be00cb75b6caa2161d1f5802806a81b69e1099d2868d51dd35b89dad6275644",
    "ensemble_trace_quadratic_boundary.csv": "4f673774cd3d3d3fb6262c9fbfe3026798b7cadbeacf4c38bdceb968afc69560",
    "ensemble_trace_sqrt_boundary.csv": "c11d28389fd0b359b1b7a5ec741c5f048e6ce226914561b9f1c26ac8eacc9a02",
    "ensemble_trace_sqrt_center.csv": "9b4f12353944314950573ecf73271a1fa2e4c6c7d811b6b4902b750c5d4bb635",
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
    "strength_sweep_linear.csv": "25d70352b2a7882cbc559828ff6cb320db7bdfa1a36028a16e056bc320007fb7",
    "strength_sweep_quadratic.csv": "3c5d29b3f68b29679e8680268e469d74be3de207d8ccc10a532695cfc926ee43",
    "strength_sweep_quadratic_boundary.csv": "6d21b21e376d33e188a5958a7c490902e13a6daab8a6892d6164ede7f5e4abda",
    "strength_sweep_sqrt_boundary.csv": "c6687b7d2ed4b5aad183ec413c3638ba9f2aedcda48f0163f16a18a6e2d982c3",
    "strength_sweep_sqrt_center.csv": "a0859f2a9ca5ef7e08218e1acfdf97f98f226fa504c1aa460872574faca24210",
    "trace_linear.csv": "cc6ba9ffa70df64285e04c37c9662878cc307a18e38d6c18da5983dba637e492",
    "trace_quadratic.csv": "21073e566bc5ae700c65c43fe1208a7356ede529d56d1a11ee17c10b225e2aff",
    "trace_quadratic_boundary.csv": "0e5372695a915166af8d22f2858f8f9fef540088f12999e1331f6b23e9c66c9d",
    "trace_sqrt_boundary.csv": "8d5f92e6c90bf88af08e552c4b7ca503fdd508209833d9f1117394006cfb8dee",
    "trace_sqrt_center.csv": "823a3db21c211fb843e66bd095f52f8c402422a41408104bb257cdb15c084d8c",
    "window_linear.csv": "e6f2cbd04858ce967abb65354992a403c092e3b71eb8f93d70e7d808eaa2d662",
    "window_quadratic.csv": "43f1026495fe05352253f029cf8a393b4517436f91a25b4893f43056cae1ac8a",
    "window_quadratic_boundary.csv": "b36c707ef786422d886c8659911d78809427922224f6d5bc124ec1d28351d479",
    "window_sqrt_boundary.csv": "20e2e8d29b98c53decb7ceadf94e18e59980b16a7acd98e88fdb9cfe7609c2c3",
    "window_sqrt_center.csv": "22334640580523dd6ce260ec26dc6ee1ca1cfa93363a25070d47eb0475b584b6",
}

PINNED_SHA256_N31 = {
    "chain_linear.csv": "ff9e91982968d6c5ca65188b4029783cd843db51a9cf52a00bf57558d6ab2fda",
    "chain_quadratic.csv": "4d4cd6107bae75942e4dddc7aa3a07cc2fd657cce058e0de162c3dc7e3a86961",
    "chain_quadratic_boundary.csv": "ba88a7dae645202679f279be43886c1b167b783a4563baed706888fb5c25647a",
    "chain_sqrt_boundary.csv": "1906348f8fa57aaf1bd17aed1eb15a0e5dab09a6de497339c935ef7ee0296f17",
    "chain_sqrt_center.csv": "a0f30590099bb8c8cecb35502ee92aeff9c069ec880eb5f49b856941901a4f8e",
    "echoes_linear.csv": "a9e94febc38e418844ce48ae003b0b7d3658a44274072025aa7f429a5b2df39f",
    "echoes_quadratic.csv": "338b9134986d4288e9d9f184dc0f9ba1d7853ba7cf5e89d80d8ec4e0d4330cb5",
    "echoes_quadratic_boundary.csv": "f0bd134c38ed2290ac98a736933794f0df6617f266b8a43cde3d0616d791d883",
    "echoes_sqrt_boundary.csv": "374a3ed37bcfb819a0cf8dc284d44ac5004d577c8b286d0fcd1172eac58b583f",
    "echoes_sqrt_center.csv": "b5c92bb1d3b9d2c7829a271c582bcf16f16a4eecba689ce4ba2181d95dad179c",
    "ensemble_trace_linear.csv": "885277957fae134e83b72e3c253f69f7af37c5bdc5b1bec6e226e95696a92dcf",
    "ensemble_trace_quadratic.csv": "48e3fab7a3b6699719cd7f42d511204810201c1e3f8b97c1405aa622b6e92fff",
    "ensemble_trace_quadratic_boundary.csv": "890ce82e6fb52b3ce4d4b4afa549ba81c5bc16fcb8587dce55139ee34b27b655",
    "ensemble_trace_sqrt_boundary.csv": "ab4bac185414a0c53fd682ac7fbb1aa74de70ff4f68336c47c0416177a80b474",
    "ensemble_trace_sqrt_center.csv": "db743e48726f6646799f8d057f852c9eaab0c71274d330e467805f8a9b570447",
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
    "strength_sweep_linear.csv": "fbfaef6e4213046c893607250e110a6ef21927c2f69d7e80c354ad01b2a6339f",
    "strength_sweep_quadratic.csv": "f81f5c957f0e308f1d1ebc611dc1bc95ebf54e938e41d74a8d307142eda1a869",
    "strength_sweep_quadratic_boundary.csv": "98dc2d48b5ecf899d1713bd91749f885efe0359331cc17c2f05524018f993278",
    "strength_sweep_sqrt_boundary.csv": "1f92f2eeb27a505d381a4f2d2a957a451faf3feac7caff29616564d16273f8ea",
    "strength_sweep_sqrt_center.csv": "40ab790d393a98d238f718674194e5dc4b96ebc57240aff050e324ac67eab7b3",
    "trace_linear.csv": "242ebcb490b459b3076c01120405a3144a9e409103d49cb956e87cef2dbf2d23",
    "trace_quadratic.csv": "6f9c9d22136f2cf7f71de9bcfaacdb50d8027ae91a3f4514f276f58b60f0039f",
    "trace_quadratic_boundary.csv": "2275db789927939c0d04530c8a29944b31efbb3a5fa45e6cb131d5a3d4cf172a",
    "trace_sqrt_boundary.csv": "6bff95037fb00b667f113097fc3d702b028de2b1153eaef3de71c62ce7287ed0",
    "trace_sqrt_center.csv": "ab59e4ed2b3207cb781fa1533a3c90a0a13c94ea2c2fc9f619347c03648803f8",
    "window_linear.csv": "299b1d1d699f13c7b9ca62354aa1820c7e2d9f1c71eedc0ed4ceabac00360c5c",
    "window_quadratic.csv": "2f55ebaec5d7a494c1f7d0911702721bf3a8f130d0be61f0b41965f7acdd9a7a",
    "window_quadratic_boundary.csv": "a963338ff54dc9d2ed57758c1640e3d90b4c3be39288f1eceeb34ae85965932f",
    "window_sqrt_boundary.csv": "b44c80aede2011d710a9f9cc59206eee03f6770034607246afd8102c10607a8c",
    "window_sqrt_center.csv": "a50a5161f2bf82c024bacd313d59acdf6c30748c819be3db55fcccda523a4ed2",
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
        "bb6bf80a25f631a42b9a0516af059423f59dd0f6a451ade4bfa8081e5a89e66c",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3":
        "95f03d3c6671ff7cd586960674ecd691ee7ebce8dd9727440ad4dcfc282dad13",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --echoes 4":
        "2c80ba04e47642f0765293662b3ffd23145a108c11dae167da86234a35f5286f",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --sweep 0.05,0.1":
        "8ff21722988f21fcddee6911d1d6e455c721383ff30031edcb85ad91a9056607",
    "analyze --family center --alpha 2 --n 11 --localization":
        "bee407212b907d943eb64228b3e676771927facab57860431df42a6d85985583",
    "analyze --family center --alpha 2 --n 11 --level-shifts --eps 0.02 --nav 10 --seed 3":
        "3edfb2d2ab977c40c687b45c2b2de549bb778c49244523bfa3043a929025f0b7",
    "analyze --family center --alpha 2 --n 11 --window --points-per-period 300":
        "119147a794c4ebcaf8a1b8a548472a1ad9a74c08fa4ec91606b16574c73b7241",
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
