"""The bytes of a small `pstchain reproduce` run and of single subcommands.

The products are meant to be bitwise reproducible within a version, so any
change to a product byte shows up here as a changed sha256.  The subcommand
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
    "echoes_linear.csv": "175bbb7f5569728c820d3c42d4b7bce760933adbef84c6e0bcf297fab461df66",
    "echoes_quadratic.csv": "e76b69e59000dc1c9a13a211aedd551c6214fc0c5bafadc671627ec73b5ba672",
    "echoes_quadratic_boundary.csv": "dc42d7ba61964d6fae95d46cf9821289cf7192e2a04c884bd67d06c965f4a0b7",
    "echoes_sqrt_boundary.csv": "9d8f62349f688fcbef567156270d9a626e68f7c50eb3d4aaf8b9f91dfcec18f6",
    "echoes_sqrt_center.csv": "d24e86e9e8ca494d0cfa794e4736599efc8891b1f0ba7102c69580ce3da17a62",
    "ensemble_trace_linear.csv": "87c52a3540bfdb9ab7a6e1d7fb6fe7d90d4f34d0ec15ed838a80fd8b4e48f217",
    "ensemble_trace_quadratic.csv": "ee8cf02cd7e7feacaaf6f16717e8ceea531b5b2d4dd076cf1028c574076e0abe",
    "ensemble_trace_quadratic_boundary.csv": "d245ad0310ffe6ea13e83bbdef54a8ccabe64334b049aafc44da2806d8d7e5f2",
    "ensemble_trace_sqrt_boundary.csv": "1155c553a895d40362cdc13101abaf546b269abe92695b102df4634b0227dd0f",
    "ensemble_trace_sqrt_center.csv": "bb7fa8207c5f9113989b82ea4b99c0f7fa4c36a9a3af4b233fd51d97f28d1f93",
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
    "strength_sweep_linear.csv": "a9e339c229e336960e8037d57ce5d0b0215c0003d872d3f701340aefb203fcac",
    "strength_sweep_quadratic.csv": "4fc00a163cd48d63a018c818ac6dbd971cd3919f03c14a7e901722c805b22c82",
    "strength_sweep_quadratic_boundary.csv": "c743475df25762ca1c35a81b156bc3972aebc3e2609b70aeb4bd63d003c72af7",
    "strength_sweep_sqrt_boundary.csv": "94c5aaba29ee5297fadfbca4d6e5db273af9d89d24e2329d2b938c7b1eec1bd1",
    "strength_sweep_sqrt_center.csv": "9f92fbd21aec8057d5e264acfcf98efecb3ec55cf8cec6eafdd70a02f0b9ed46",
    "trace_linear.csv": "e15d58d8b0774ee71d354e34f50b7bd1361b32011c45d578f2055246d173c0f8",
    "trace_quadratic.csv": "afd97531c727ced3b9aa0bf4e18046401fb9ebb8fdf6a8d30fea23dfca491b28",
    "trace_quadratic_boundary.csv": "1a626d7d4018bbb526a186b076764e7245b0051878ef61234821450693aec59f",
    "trace_sqrt_boundary.csv": "ba112431ff9d3d0b91d2b8b97ce2ce465fa7e085a755bdc85848d7b2a2d2e502",
    "trace_sqrt_center.csv": "c21b8fe7d9fb7b61fa4cc542ab7fc064ab4d46f5c36cdc2e65375739b6b6679f",
    "window_linear.csv": "6007267c5d22d08fec715c8f52b2a6bd183264eedc28f01e7bd34b2f2ae2570e",
    "window_quadratic.csv": "69ca27d3aef49c4bda5af6078cadbd6a6eecda5e29b30957e5a8c0030089b37b",
    "window_quadratic_boundary.csv": "e3bcde595b67bd43e40c7f80ca23c52ab3b59c68cf860b2bf9337d440a2984aa",
    "window_sqrt_boundary.csv": "2acc6f6c43bd954d21c43a705645aae664c107915180076ea607b94f78c2ba24",
    "window_sqrt_center.csv": "00cfc4faf23256553c95dc95a6ae4d97d85e442a0b96b59cdaced807e2a37207",
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
        "534041961346d123b7add2704c4a25fd2bcc0dd23c18ef3fe1c9a9da2ddb629d",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3":
        "6edbdf96b5cd3e4e861fc5da7d67e0e38c0b28b06c3b148e9c7960f3d210dda7",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --echoes 4":
        "182d517784b05120c7d74e11d5f341a7f4d81b415899e5e884a420189e3d7f0f",
    "ensemble --family center --alpha 2 --n 11 --eps 0.02 --nav 10 --seed 3 --sweep 0.05,0.1":
        "1bdff9c52b73ac2081448d185c7ddd94ddf1597596018199a9e8ebd5048a5216",
    "analyze --family center --alpha 2 --n 11 --localization":
        "bee407212b907d943eb64228b3e676771927facab57860431df42a6d85985583",
    "analyze --family center --alpha 2 --n 11 --level-shifts --eps 0.02 --nav 10 --seed 3":
        "3edfb2d2ab977c40c687b45c2b2de549bb778c49244523bfa3043a929025f0b7",
    "analyze --family center --alpha 2 --n 11 --window --points-per-period 300":
        "139f1c7d388b131b24d3b5220424453c0e67a4ba3dfacbd82a83aeb16a21cf1d",
}


def test_reproduce_bytes_match_pins(tmp_path):
    code = main(["reproduce", "--outdir", str(tmp_path), "--n", "9", "--nav", "5", "--seed", "3"])
    assert code == EXIT_OK
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    changed = sorted(name for name in PINNED_SHA256 if digests.get(name) != PINNED_SHA256[name])
    assert sorted(digests) == sorted(PINNED_SHA256)
    assert changed == []


@pytest.mark.parametrize("command", SUBCOMMAND_SHA256)
def test_subcommand_bytes_match_pins(tmp_path, command):
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUBCOMMAND_SHA256[command]
