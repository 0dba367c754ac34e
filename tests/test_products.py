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
    "chain_linear.csv": "cc11e6a07b429e966f60b8710e9d6b7de89bb1bb9f5a05ec804bd338a8a24ea4",
    "chain_quadratic.csv": "710acc8ed7fbb3922244b2e2c7f114554d6a20cbc41806a63c52f003bc08fc94",
    "chain_quadratic_boundary.csv": "9fb17696ebf9bed78a502f5531c0906a9efd36202707e17ac1f45a4c2b052779",
    "chain_sqrt_boundary.csv": "bd4894df325b3e59d60d2526e577d8dd2e678d5385c2bedf6cd4a7d1d35b86ff",
    "chain_sqrt_center.csv": "30b7af6795aa06af71924cae9edaa272f386a0a754fec0e4eb816983b3eb9adc",
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
    "level_shifts_linear.csv": "17c0e8acc4eb18223bd2f5f1f69022269d0225aa9d702fc21224f8d9e6856b8f",
    "level_shifts_quadratic.csv": "9c97505879fc45a8b38c8e6e27a81086e805fae293810865d726bd68da94e6b0",
    "level_shifts_quadratic_boundary.csv": "cc77d4aefa49e99fc21c8ec0bc6eb7b2c08c84dd99b65f11f2ca4a16dc06c309",
    "level_shifts_sqrt_boundary.csv": "81093f2b2e6b760878e80ce6019c293ee4baa641498a88306714a27ffc1fac60",
    "level_shifts_sqrt_center.csv": "720e78409d20ad3d9dbe8d7d7294fc22383cd9123fbb90b8753e6b4b6bd09ec9",
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
    "chain_linear.csv": "fe5e1d642acf5c4d59d82592b29066f6b27b548cd8932b64f1a032978e93334e",
    "chain_quadratic.csv": "179ef9804e16cc667c728e1c598d6748a89fac5b609605f232a915b3c61e468f",
    "chain_quadratic_boundary.csv": "b5e3fb8048fc091a1e76b7f0d6c1cba7b0475af4728f5572eea0e11deddcc06f",
    "chain_sqrt_boundary.csv": "4ca94479cac1a11bcfa6770f5f4b11c0b92b482b7440f922906efb8181805869",
    "chain_sqrt_center.csv": "b9def8667e74c01dc66892caa0d3fe4f382f2cd305e2bec4d6240fe58e8dde0f",
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
    "level_shifts_linear.csv": "be1f44022125bcc75a32b8b537866c251e1142769221c90cbd4834d123c8e6a3",
    "level_shifts_quadratic.csv": "1f1e457a8da7f9428dbce19b3d2f9f7eadf6bd39127ccaa16afc93d5b00a494b",
    "level_shifts_quadratic_boundary.csv": "4d10da057cb8241510da644ab9d740b165a202d33f512e73b3ec657f02abe32f",
    "level_shifts_sqrt_boundary.csv": "59087ba7a85c0089b26e0cc2060fb635d5b9f452cdd109fde63c8af664d7040a",
    "level_shifts_sqrt_center.csv": "769a90a454c9c84cf9eaae5c92f1a3f73e1b5d244a33f46d05c65c9817e83583",
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
    "window_quadratic_boundary.csv": "422edc55c0d933692121829650854686d4a46c655a983449991425cd86a0d890",
    "window_sqrt_boundary.csv": "7be268f3dae55c1138f003d341b49c786eba252a47931b0521a03e82cdf0d241",
    "window_sqrt_center.csv": "6bd50398455d9c0bfc784729cff53188c1b911970e0cdae1e34d3d3c92b59f68",
}

SUBCOMMAND_SHA256 = {
    "spectrum --family center --alpha 0.5 --n 15":
        "6136e0be83fd1e5a2da1d19330e4487948ee98d0e0bcf069089c06e965f907c6",
    "spectrum --family center --alpha 1 --n 15 --no-adjust":
        "af6ee60ada1bb818f8f11d0d69f3dd87238f3e74bd293f3d6f168f9667ce3ae5",
    "chain --family boundary --alpha 2 --n 15 --amplitude 2.5":
        "672f3a209e2be43a56988d5644a31c2cbfc4165f287ae12eed8e4a09ee50b821",
    "chain --family boundary --alpha 0.5 --n 15 --no-normalize --base-search-tolerance 1e-3":
        "b6778bdf4b9e4e1d755f41abf3b3a130f3e1f03a47aaba700b5e32f598577dbd",
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
        "bff13574b80886bdc0f2c5e45e79b1e7a359223fd2673a798ae00895ec2378e2",
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
    assert changed == []


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
