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
from pstchain.disorder import echo_times
from pstchain.pipeline import STANDARD_FAMILIES
from pstchain.tableio import read_table

PINNED_SHA256 = {
    "chain_linear.csv": "641781ae4e2693df68da95bdcb7a55dede601877fc8e926167ad98e513ae4336",
    "chain_quadratic.csv": "710acc8ed7fbb3922244b2e2c7f114554d6a20cbc41806a63c52f003bc08fc94",
    "chain_quadratic_boundary.csv": "3ad951ad2ceedc114cec2e47901d76371d90c703d2f331f506db369378b8c16a",
    "chain_sqrt_boundary.csv": "bf33908802d37a6f1db5573d0159ad817a52714efcf5ae2d2d165aa0b63c3089",
    "chain_sqrt_center.csv": "0a99f557791a1f2fbaabff16ad6559df55a586905ea2c164e854396502e91120",
    "echoes_linear.csv": "3107e4d184c4de0b5f39301d71f26033bef25b319818713a6ecf48c59140d3e0",
    "echoes_quadratic.csv": "55c6bf02ae1810756ae9702a8205f6ce797c42361d76bcceb2770440520874a4",
    "echoes_quadratic_boundary.csv": "127a95eb387ed3bd8b658dd6a4a2f1c60297288e8ecb95fbae1ed838925d3ad4",
    "echoes_sqrt_boundary.csv": "0adefce88deba62629f594464ad49d1ee181d3572f03ebb0c7e20a4259c6872f",
    "echoes_sqrt_center.csv": "69449672226a0c191fda54317b96de760ed96e7c10ee733faca6bb24c2abfef4",
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
    "strength_sweep_linear.csv": "0d1145aa537f28fa09934e88c75d5bd2f765f218f92ce3154da5897e541e913c",
    "strength_sweep_quadratic.csv": "205659339a79c3129656c162510cee7bebfe2eeaa3714d2d4540e790f7d598d3",
    "strength_sweep_quadratic_boundary.csv": "45395b603161f44cdbc47e2f0a15716b7532463a374d587dfb6aeb2b98bc6386",
    "strength_sweep_sqrt_boundary.csv": "e41f42ef13cf8a760bcc0439bcae73e6c332048e8d1fd3d759513520e763dc9e",
    "strength_sweep_sqrt_center.csv": "b14733165a6d6f6ff8092d62ced409d9f1f438466a563c4933f94442a9b82b4d",
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
    "echoes_linear.csv": "719afd0cbca28419a09dcc0486c5a704b40689afaa11709a99fd0e7c9eea3e42",
    "echoes_quadratic.csv": "e76f7b68c7c8f796803ea8457dced87a41fe798ff6250d38e1250a6eb9fd2d1a",
    "echoes_quadratic_boundary.csv": "2626cddb37471811f8340fed750d5897ff3fbd41da5a54f8f4d32eae67b79e98",
    "echoes_sqrt_boundary.csv": "8c5c96f886fb4055505579a0c0ece8d68b464464a946f381f7d6f8e94ad55637",
    "echoes_sqrt_center.csv": "071b7fc6a8f7730ad6bf1b16e1a545d4854a0dab35564f0a0fb9c24db4e41d00",
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
    "strength_sweep_linear.csv": "3916cc694a0d949fe97531dd399092f303c1e1ac433dddbe063e3e4686a68e31",
    "strength_sweep_quadratic.csv": "ac3b4fcc84f8bfedc4e8ac99c9e03b5e3974a455ef5b10fde7f1268031ea5d54",
    "strength_sweep_quadratic_boundary.csv": "b245aac0efc40e9a400e6458ab9fe459924f4f495f9cd3daba0c7a0d61226157",
    "strength_sweep_sqrt_boundary.csv": "27092b6ed9eb4f1e93047dabc7b031011a38e2c51c601887b26c157f276efd1b",
    "strength_sweep_sqrt_center.csv": "6c3bd5ca29b50f36a5c90cb29f5d0721b9d36244b5a22b5f5029aa018487308a",
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
        "326e1a376a529b98b2d2b5c092eddc6011c7e87bb2c14e379af373a3aca45f18",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --sweep 0.05,0.1":
        "4419df2a7553e941247455e78e20806cdb1073d1338b4964452b00cfc05296d8",
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


@pytest.mark.parametrize("name", STANDARD_FAMILIES)
def test_production_size_echo_times_are_the_designed_t_pst(production_products, name):
    # the header's t_pst is the designed one, and the echoes are timed by it alone
    metadata, columns, data = read_table(production_products / f"echoes_{name}.csv")
    times = data[:, columns.index("time")]
    assert times.tolist() == echo_times(metadata["results"]["t_pst"], 9).tolist()


@pytest.mark.parametrize("command", SUBCOMMAND_SHA256)
def test_subcommand_bytes_match_pins(tmp_path, command):
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUBCOMMAND_SHA256[command]
