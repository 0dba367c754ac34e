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
