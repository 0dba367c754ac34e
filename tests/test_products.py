"""The bytes of two `pstchain reproduce` runs and of single subcommands.

The products are meant to be bitwise reproducible within a version, so any
change to a product byte shows up here as a changed sha256.  The small run
(N = 9) is fast; the second is the production size (N = 31, 100
realizations, about a second), run once for this module.  The subcommand
runs set the header fields that `reproduce` leaves at their defaults:
amplitude, search tolerance, no_adjust, normalize, grids and disorder.  A
change that alters bytes on purpose updates these pins and records in
CHANGES.md a numeric diff of the old and new files together with the
tolerance it was checked against.
"""

import hashlib

import pytest

from pstchain.cli import EXIT_OK, main
from pstchain.pipeline import STANDARD_FAMILIES
from pstchain.tableio import read_table

PINNED_SHA256 = {
    "chain_linear.csv": "641781ae4e2693df68da95bdcb7a55dede601877fc8e926167ad98e513ae4336",
    "chain_quadratic.csv": "710acc8ed7fbb3922244b2e2c7f114554d6a20cbc41806a63c52f003bc08fc94",
    "chain_quadratic_boundary.csv": "3ad951ad2ceedc114cec2e47901d76371d90c703d2f331f506db369378b8c16a",
    "chain_sqrt_boundary.csv": "bf33908802d37a6f1db5573d0159ad817a52714efcf5ae2d2d165aa0b63c3089",
    "chain_sqrt_center.csv": "0a99f557791a1f2fbaabff16ad6559df55a586905ea2c164e854396502e91120",
    "echoes_linear.csv": "f6d9bdc74bd43072658bc56fa24e51625b25b7388b4d89e1911654e88e8391f0",
    "echoes_quadratic.csv": "5789c86b6b23642fac09e86841caafb9729304c222411562ddad89aebe0e1527",
    "echoes_quadratic_boundary.csv": "27c79a8d52ca71f9bbfc2b98d5747847b8eb6bbc0c20b741198f3b1dde1ea973",
    "echoes_sqrt_boundary.csv": "245ed4330ae276191a0103bc03b1fd878072adaf538a62fdf0c302a93fa3a2e4",
    "echoes_sqrt_center.csv": "5a72de24e90ee81a0e8ab441fd53669be49882e9e7976bb1e348a713c284d8bc",
    "ensemble_trace_linear.csv": "c80d181f35aee30bae97d7332489f6311b0a2bfa137d7b3ecacb62f50a726eee",
    "ensemble_trace_quadratic.csv": "3a19070445693775509e785b907a1961d082ce85d85158b1a4384cd8247b840e",
    "ensemble_trace_quadratic_boundary.csv": "5b0842b0ca9f4641a2fb72db7636b78801f5ebffc9bd565542fccdf74b3aae8b",
    "ensemble_trace_sqrt_boundary.csv": "ae657b40f6ef92ee79096eccbad1056f04dcb642ce754ff94de73e4936847c5d",
    "ensemble_trace_sqrt_center.csv": "7557a23d50844fa9c06932c9f30bc01dafd051e9ef08b69d62485fb64f83fbd9",
    "level_shifts_linear.csv": "5eeae8a1ce5cbe38efd3881ff493d0a8659942657675f36dc3c16efdb47211b4",
    "level_shifts_quadratic.csv": "c8cca3b9fb8832be0a192327efe52069e36031eed2b3fa60b87932e63ac13317",
    "level_shifts_quadratic_boundary.csv": "2c355428eddad84ac664477b26790dd9192fca2f1159959130f95c2f3bf44277",
    "level_shifts_sqrt_boundary.csv": "8bd1e48823fcdaa58d56c518780c193b29c61c6044dc04902e34fbe7917a7fdb",
    "level_shifts_sqrt_center.csv": "a98f2ba14307b47768abf1a00ded6eb1ac0bd8934c456a2b30296a3067e46b4e",
    "localization_linear.csv": "aef2ffd8b1b592266977f06b4999abd46add7c024680602a4d0489ebaa9b64e5",
    "localization_quadratic.csv": "cc9947590d56bbf8c8ff7990cc133724ff0a5b95494b8e3c935af13efb46df6d",
    "localization_quadratic_boundary.csv": "501bd8274bc37715319241932be73ab781ea7478d3ec3d3f393c23cf10b644e0",
    "localization_sqrt_boundary.csv": "378e28b8018fe4829c724901e826cc5f044c6745dec9c716c5ca49c333af53aa",
    "localization_sqrt_center.csv": "2e8f49489f4d2a220dc7e28c8a94852518aaa9e4191d8f8c61541253b4df8270",
    "spectrum_linear.csv": "9fbb3285b1a0c071a9f6554b26e2c45150a70a774a296ec5137fa4e6bbd6f43d",
    "spectrum_quadratic.csv": "a9164d84c28f11b575dff137702c651ecf9e7bd72c4baa0e2f000897670d70a2",
    "spectrum_quadratic_boundary.csv": "e4956393819c30662e0c97bb340092869e800cbacb3c09556c0eeb9137cd6b1d",
    "spectrum_sqrt_boundary.csv": "1b67ef10e6b1d3e7a8d812e1caccb74a046cb4a36974686a5f06e5e586c7693c",
    "spectrum_sqrt_center.csv": "e954b8a66703495b75a5abc65019f51b9d634df05292fb12436ef8fd8eb46e16",
    "strength_sweep_linear.csv": "5764073ba40bbd2b6d4b3aa069116c9c9bd89394b8ea81f6f3cac0a210931745",
    "strength_sweep_quadratic.csv": "2981dba97a08d0ace8885cbad2c5f41f7a19006faa78d5cf22026521fd8b6125",
    "strength_sweep_quadratic_boundary.csv": "cc4cc66fb190c338b7dad51eb072d35bbcaa0f16817ec2e80ab3c4b53839f7df",
    "strength_sweep_sqrt_boundary.csv": "394a52affaa45fcb0e0c11491c9f5982a96a1f6faeffd894c6028e792b52be8b",
    "strength_sweep_sqrt_center.csv": "55cfd2c58fa332874b7358507436ffe58b58cebc2d8f5a40e180fb649fb8ecbd",
    "trace_linear.csv": "b18cb811c7cb3d7fa9065421419b64de6d939b36ec169a500a19cd91cabdf793",
    "trace_quadratic.csv": "8bffabe663c41fc7b3ce0270e1592c87cc5631b42eb49ff11ae42b3689a6783e",
    "trace_quadratic_boundary.csv": "e2133853dfcad8327f926eec70e87c109ec23892f163e4ebbb5dd9d132387801",
    "trace_sqrt_boundary.csv": "a287053e23087361be277da8129d02d4a526455edb82fe0ce7566a33507f2ab6",
    "trace_sqrt_center.csv": "370b4ea1538cfa0cfab2359991a336efbcc1561f5a3abe70e1787e784518d414",
    "window_linear.csv": "cdafd72947ef35b9fa686433cb33f354a8f95a5b1f987614e8cee5ef167182a4",
    "window_quadratic.csv": "53d2c29ddb8590784f591f9d963bbd66341f80dc0d73f6b8d7a23d3ad889b2bf",
    "window_quadratic_boundary.csv": "471c3dce795176fa6e195ed2383966e17fb485f60ffc51049038913216a3a92e",
    "window_sqrt_boundary.csv": "ed6e6a2336691959a03daad704717649049a4e312458f441f3011a2b3a34138b",
    "window_sqrt_center.csv": "da6da9d0b744d62b58a32d0c048abc8336b276bcddf962bbe83e7fee1c815289",
}

PINNED_SHA256_N31 = {
    "chain_linear.csv": "4a197c08e43956f60f81679170c48bdfedbe80d441c27fac57f157c1c807f573",
    "chain_quadratic.csv": "713e309370105874dbefd0a20443c7df536b1c10db7f8efcfa0bed922e230a16",
    "chain_quadratic_boundary.csv": "be4db3d5fc52f6878362a8aaefcb581d4027b5200447abae74762c0e24a6ef66",
    "chain_sqrt_boundary.csv": "bbe711a876e01fc0f0e4c6b3803e7b224e27f10242afbe3ee8b0b1eb28e5abcb",
    "chain_sqrt_center.csv": "8d6769f320b408c07ce2674eb87719bb862ce9241ceecb9b2c12a064bd1d194d",
    "echoes_linear.csv": "b6a270b0bf321bd63092f1cd0428e43f4ae72db1cc45e140c59ceb364e493767",
    "echoes_quadratic.csv": "ed4f277cd5e4a1b62eb2f718a9b734f3691ba987d0c91c99b7aba9400462afec",
    "echoes_quadratic_boundary.csv": "02ec55a92d0f6a3808141bd9091f929d80d6e7fcc9fca5059256afaf4e7d2be6",
    "echoes_sqrt_boundary.csv": "9a4db33a5ca15d4bf87ba6d07c4452f445dd56e6e44179b721840ef04f2f794e",
    "echoes_sqrt_center.csv": "8a9fe5afae54c2ca75d7a02ace603e5f706c503134c0e3a49064674c0a5e606f",
    "ensemble_trace_linear.csv": "d4adf68b4fdb056960abf467f181223d6c83edf51e9b056a5079a51a00d6fe1e",
    "ensemble_trace_quadratic.csv": "86e67a6dbf2b0f21bd9bd0fed183d5978cc8d8af26e07d62b02780c4b421e2a5",
    "ensemble_trace_quadratic_boundary.csv": "0397937787ccf568272d3122137f4a6a7a2dd4212ccad480f2c0fd19c5895abb",
    "ensemble_trace_sqrt_boundary.csv": "e518a873cb1b6518b8c004f8bcae5872c32cf2536e96df9590c74b39cbf26ebf",
    "ensemble_trace_sqrt_center.csv": "0b42a73139393e3698005dda1c06fc1785a0cc62bc5df90d353b79377f32816e",
    "level_shifts_linear.csv": "81b73750c1c8dcd1f6bb2e20bac5f973588675d11ed712984719d82efebd53ac",
    "level_shifts_quadratic.csv": "bab3224874156dc2a1adba814433d076b0e5e54613465cdd3ce656fbd5f5f91d",
    "level_shifts_quadratic_boundary.csv": "266aea1044a73201e84c4a6947aa95c504d5b8e588724d8cadab7f574fdf4e9c",
    "level_shifts_sqrt_boundary.csv": "5384cd2cadf20e9b5282d8f0b302ddf1bce5ce57d3eabef10ad596b78735403a",
    "level_shifts_sqrt_center.csv": "2fbb212a9f09f94576eb6214ac6c51e2fc3936c4c630e84474b81c063b680ef5",
    "localization_linear.csv": "d88e1f84c925183f149d42be199778fdcfda01b9a063e63298e4fa88507de1c0",
    "localization_quadratic.csv": "e3f7d4a44c4c32c114df679cedf5891ffe823bb722d3a30a9fdb732fedd3267d",
    "localization_quadratic_boundary.csv": "a9d04b6cf7fba9751abab8f255b830c28c10a995e4efa590985f53dd1a5e6474",
    "localization_sqrt_boundary.csv": "1e6be13116ba58b53392d9676e6e89bc419259301e08d3569cdd7c7b8bd08567",
    "localization_sqrt_center.csv": "1138ec83631866da0b302fe5af2633771be0a91dde435fe2e67fde39bddfc339",
    "spectrum_linear.csv": "ae738c33ec1e8b7627256faa14ca884e901781174f56e258ff8d80fed5868d21",
    "spectrum_quadratic.csv": "ec46e8aff0208fb6edd02298781201b9c06be201bbee19a880abe7e33c56cb85",
    "spectrum_quadratic_boundary.csv": "d627a604eb65f996aef4359b4ed9456b9c254c953013742e25f9262a32956bed",
    "spectrum_sqrt_boundary.csv": "687025d28dec57827dcfc162e96ecd688ff0ffed812c290206a73a11bb9e6d8f",
    "spectrum_sqrt_center.csv": "468c4409a0ed2e08aac79541d45ebcd496dff7ada6b40954a60c4b00331f50d3",
    "strength_sweep_linear.csv": "213d321fd34970da96597379189660f0f91bf77b2ccf5d4d34d59ba4ba51ba03",
    "strength_sweep_quadratic.csv": "9607a2f9a3c78c2cc4af9992ad6f74c4783e4e47eb43ee7f447be9b3e140abe5",
    "strength_sweep_quadratic_boundary.csv": "e2d4cb02d5f149be2bacef8acce5a6e32895a534c44191f3308865a3f536d6a8",
    "strength_sweep_sqrt_boundary.csv": "89dacfa7f20626b7a38b84bb0191d4c6c447a528f51890b3de7d2e929c43743c",
    "strength_sweep_sqrt_center.csv": "0a126a5c0f38809a8ff85351b27f72d38c49777fb2d38d72e93b6c272aa01d4d",
    "trace_linear.csv": "bf3b3e6893ede8416d7c66e39f8fc3dd7678f4b4375ef6b5e7921562a9d3e2f2",
    "trace_quadratic.csv": "8a6a42607dedbf50d28923b23e8ea63ea49e458c7e97534c1686b6e18ea645dd",
    "trace_quadratic_boundary.csv": "8da7ab38c743036922f737af923804f2f1b25743a8c0af03ddda19e45cb5fdbb",
    "trace_sqrt_boundary.csv": "ebbc841b11d2df0bc669ae4178a030a8f4349e416e08562901b155a93d7d9b1c",
    "trace_sqrt_center.csv": "947ab1725a11755f17133c9b80668b2ac3b63bf9c40e59176d4e1e40a951ab80",
    "window_linear.csv": "c518b23b926276f5d8b4e6ab477daa2248290376b954c8a2422a21b8157d8f7d",
    "window_quadratic.csv": "f0608924d3116c24c156d9b30d7dcbc994106737d1718b47287da4673bc4cea6",
    "window_quadratic_boundary.csv": "e67fea81265332a09ebb0a7131972c2a692939e0b5cc9fd39d45676cd65132ec",
    "window_sqrt_boundary.csv": "4527ea645bc22da9885962f8c54e9c9b1e70b2e7bb107d181610cbb1279b5998",
    "window_sqrt_center.csv": "6bd50398455d9c0bfc784729cff53188c1b911970e0cdae1e34d3d3c92b59f68",
}

SUBCOMMAND_SHA256 = {
    "spectrum --family center --alpha 0.5 --n 15":
        "6136e0be83fd1e5a2da1d19330e4487948ee98d0e0bcf069089c06e965f907c6",
    "spectrum --family center --alpha 1 --n 15 --no-adjust":
        "af6ee60ada1bb818f8f11d0d69f3dd87238f3e74bd293f3d6f168f9667ce3ae5",
    "chain --family boundary --alpha 2 --n 15 --amplitude 2.5":
        "d6d07367a21089f1810358f8c88beebd63028a5e882356f9e66e6d340ae5e873",
    "chain --family boundary --alpha 0.5 --n 15 --no-normalize --base-search-tolerance 1e-3":
        "3b17b5163b10a3398b65faa53601308d7cee2f8810f48e0048bee4ffbf69d9e2",
    "simulate --family center --alpha 2 --n 11 --periods 1.5 --points-per-period 300":
        "b86094bf9e17cd17b948717bb00ac3dc61eabd6c7a6ee088f224b564b07beb20",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3":
        "9dc5d01ed2ec3320c72a148e87b218b9802691e543200dbf7b1ec2480a5f080f",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --echoes 4":
        "9ee852172bf7cb18906c14c491986b87072d5da78b42cec007c99c15f71cf3dd",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --sweep 0.05,0.1":
        "17de3246119a0ceb000d6d3daaf436bc17349e5e66e6be3ead980d2154184ff6",
    "analyze --family center --alpha 2 --n 11 --localization":
        "c9fe8e72351b0ebea98d0546e44b7c821d5ea5cd5bac66067117781f87ae76ec",
    "analyze --family center --alpha 2 --n 11 --level-shifts --eps 0.02 --nav 10 --seed 3":
        "42bdfcf918b784307e21f1ca893d39aa5e9dceaf90d82449cefb4c72f8b5994c",
    "analyze --family center --alpha 2 --n 11 --window":
        "71ed0997e2dd7d218cfac423a6a6ac0adb5d9ddae440f80d87a24dc7fd5ef92e",
}


def _reproduce(outdir, argv):
    assert main(["reproduce", "--outdir", str(outdir), *argv]) == EXIT_OK
    return outdir


def _check_pins(outdir, pins):
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in outdir.iterdir()
    }
    changed = sorted(name for name in pins if digests.get(name) != pins[name])
    assert sorted(digests) == sorted(pins)
    # the message lists each changed file with its new digest, ready to paste as a pin
    assert changed == [], "\n".join(f'"{name}": "{digests.get(name)}",' for name in changed)


@pytest.fixture(scope="module")
def production_products(tmp_path_factory):
    return _reproduce(tmp_path_factory.mktemp("n31"), ["--n", "31", "--nav", "100", "--seed", "7"])


def _column(path, name):
    _, columns, data = read_table(path)
    return data[:, columns.index(name)]


def test_reproduce_bytes_match_pins(tmp_path):
    _check_pins(_reproduce(tmp_path, ["--n", "9", "--nav", "5", "--seed", "3"]), PINNED_SHA256)


def test_production_size_reproduce_bytes_match_pins(production_products):
    _check_pins(production_products, PINNED_SHA256_N31)


@pytest.mark.parametrize("name", STANDARD_FAMILIES)
def test_production_size_sweep_starts_at_the_first_echo(production_products, name):
    # the sweep's first strength is the echoes' model at the same t_pst, so
    # its row is their first echo, bit for bit (repr round-trips every float)
    sweep, echoes = (production_products / f"{stage}_{name}.csv" for stage in ("strength_sweep", "echoes"))
    assert _column(sweep, "epsilon")[0] == 0.01
    for field in ("mean_fidelity", "std_error"):
        assert _column(sweep, field)[0] == _column(echoes, field)[0]


@pytest.mark.parametrize("command", SUBCOMMAND_SHA256)
def test_subcommand_bytes_match_pins(tmp_path, command):
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUBCOMMAND_SHA256[command]
