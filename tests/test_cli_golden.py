"""Golden CLI reports: the regression oracle for refactors.

Each pinned invocation runs ``szegolab.cli.main`` in process and is reduced to
the SHA-256 of (exit code, stdout, stderr).  The digests were measured with
numpy 2.4.6 and Python 3.11 (whose argparse words some usage
errors); a change that alters any report byte, exit code or message fails
here and prints the report it produced.
"""

import hashlib

import pytest

from szegolab.cli import main

_SCHEDULE = ("--schedule", "5:50,10:100")
# Odd n: the middle row of the sandwich's Toeplitz spectrum.  10:101 would
# raise h from 5/51, which the schedule refuses, so the second point is 10:103.
_ODD_SCHEDULE = ("--schedule", "5:51,10:103")
_MODELS = (
    ("ou", "--rate-param", "0.8"),
    ("gauss", "--width", "1.3"),
    ("tri", "--support", "0.9"),
)

# Usage errors pin each message's text and, where two options are invalid at
# once, which one is reported.
_USAGE_ERRORS = (
    ("rate", "--model", "ou", "--rate-param", "-1"),
    ("rate", "--model", "ou", "--width", "1.0"),
    ("rate", "--model", "banana"),
    ("rate", "--schedule", "5:100,4:80"),
    ("rate", "--schedule", "5x100"),
    ("rate", "--tol", "0"),
    ("rate", "--seed", "-1"),
    ("mc-validate", "--seed", "-1"),
    ("rate", "--format", "xml"),
    ("power-sum", "--q", "5"),
    ("power-sum", "--q", "0"),
    ("power-sum", "--T", "-3"),
    ("power-sum", "--n", "0"),
    ("sandwich", "--degree", "0"),
    ("sandwich", "--domain-max", "-1"),
    ("sandwich", "--domain-max", "1e200"),
    ("mc-validate", "--paths", "10"),
    ("mc-validate", "--refine", "2"),
    ("mc-validate", "--lags", "0,100"),
    ("mc-validate", "--lags", "0,x"),
    ("rate", "--no-such-flag"),
    (),
    ("frobnicate",),
    ("sandwich", "--degree", "1029"),
    ("sandwich", "--power", "0"),
    ("rate", "--tol", "0", "--seed", "-1"),
    ("power-sum", "--tol", "0", "--q", "5"),
    ("rate", "--tol", "0", "--rate-param", "-1"),
    ("power-sum", "--q", "5", "--T", "-3"),
    ("power-sum", "--n", "0", "--q", "0"),
    ("sandwich", "--degree", "0", "--domain-max", "-1"),
    ("sandwich", "--power", "0", "--degree", "2000"),
    ("mc-validate", "--paths", "10", "--refine", "2"),
    ("mc-validate", "--lags", "0,100", "--paths", "10"),
    ("rate", "--model", "ou", "--width", "2", "--power", "-1"),
)


def _invocations():
    out = []
    for name, flag, value in _MODELS:
        model = ("--model", name)
        tuned = (*model, "--power", "1.5", flag, value)
        out.append(("rate", *tuned, *_SCHEDULE))
        out.append(("equivalence", *tuned, *_SCHEDULE))
        out.append(("sandwich", *model, *_SCHEDULE))
        out.append(("sandwich", *model, *_ODD_SCHEDULE))
        out.append(("mc-validate", *model, "--n", "20", "--paths", "200", "--lags", "0,1"))
        out.append(("dump-gram", *model, "--n", "16"))
        out.append(("dump-spectrum", *model, "--n", "16"))
        out.append(("rate", *model, flag, "-1"))
    for q in range(1, 5):
        out.append(("power-sum", "--T", "10", "--n", "200", "--q", str(q)))
    out.append(("rate", "--format", "csv", *_SCHEDULE))
    out.append(("rate", "--model", "banana"))
    out.append(("rate", "--model", "ou", "--width", "2"))
    out.append(("rate", "--model", "gauss", "--support", "2"))
    out.append(("rate", "--model", "tri", "--rate-param", "2"))
    out += [argv for argv in _USAGE_ERRORS if argv not in out]
    return out


GOLDEN = {
    "rate --model ou --power 1.5 --rate-param 0.8 --schedule 5:50,10:100": "288cfc7814f15c83f6f291c26976f9ae17169f231a85676e9b02c4bfd5bc913f",  # exit 0
    "equivalence --model ou --power 1.5 --rate-param 0.8 --schedule 5:50,10:100": "f53a7ee7d51f11a068bfe0f6dbcc8b27d79bdd0bd2a555eb82bc7a914d09b63e",  # exit 0
    "sandwich --model ou --schedule 5:50,10:100": "c930c1b6970b741c2bb70594cba82268d3708f97de9d52bb842cdecf3a5c5f30",  # exit 0
    "sandwich --model ou --schedule 5:51,10:103": "c22cf18311afdc6324a946472cdc7a3315cfb23a8533fe0e62cc3a5fd73ad2f1",  # exit 0
    "mc-validate --model ou --n 20 --paths 200 --lags 0,1": "0506a4dd194813bb470b1a476c4a8f159585e387d268fdd83f12c34c79529b26",  # exit 0
    "dump-gram --model ou --n 16": "4a5594ebcf8e61951e9b0b579524cc0bda7818afac0f2d54231e3e31c5d3ed4b",  # exit 0
    "dump-spectrum --model ou --n 16": "efe99f5a6b1736ec8c9dbf6ad1bae19848ce2dfa0c4ecdf42a109458471c2fe0",  # exit 0
    "rate --model ou --rate-param -1": "ce490b5226881f0be2b0bcff1fdb5bbaa8c60b2befe2ab6e1d34dc1d075c27f1",  # exit 2
    "rate --model gauss --power 1.5 --width 1.3 --schedule 5:50,10:100": "c3ffbceab32afd7ca14076045610141da7e72f3c183fb4459f5966d3269cd3e0",  # exit 0
    "equivalence --model gauss --power 1.5 --width 1.3 --schedule 5:50,10:100": "427b32b08d7c058035a283c89846c9787e9aedff5eb9ca2729a3e427fd8034bb",  # exit 0
    "sandwich --model gauss --schedule 5:50,10:100": "68a7e48d183cac89b94a0a15c67da1b1bc0665596dfb442332b4c79ad157eb89",  # exit 0
    "sandwich --model gauss --schedule 5:51,10:103": "14252f019b25aa7d6ac5e85a7d182bb1985990a44997bff3e7d7bac857f79611",  # exit 0
    "mc-validate --model gauss --n 20 --paths 200 --lags 0,1": "70051b47b7bcac37aad2bf0ac05d4c611a141ba87b54e62087a62ddc3a40bafc",  # exit 0
    "dump-gram --model gauss --n 16": "f19565baa695f71b949a103505ed5b6a2891c8d1860cce72e4418ccc6010d54f",  # exit 0
    "dump-spectrum --model gauss --n 16": "53adcae05a3279458264b3d0d85cf77bc06cc5d3a4f397e9d60c57418f794874",  # exit 0
    "rate --model gauss --width -1": "32e696df8e594dc4c18046e5fdbb4ddfc1735dd3ee7dd97ec328520ce8b04ebd",  # exit 2
    "rate --model tri --power 1.5 --support 0.9 --schedule 5:50,10:100": "e47f5aa3e5a501737afa867b97111c650c508a21634fe5582fc9570c0dc2e36d",  # exit 0
    "equivalence --model tri --power 1.5 --support 0.9 --schedule 5:50,10:100": "05e3e9b512b62e8f2043e23228db3d85b592bd5c71414e42e818fae4ae56638a",  # exit 0
    "sandwich --model tri --schedule 5:50,10:100": "c09977ef0020cd69f92f813fcce2691bee52b455ca4d2631c35c21558117ae6c",  # exit 0
    "sandwich --model tri --schedule 5:51,10:103": "b35c80f07d1a8fb8587f6b5215e49e90f643ac145a2ae2ede807f8a735ea90fe",  # exit 0
    "mc-validate --model tri --n 20 --paths 200 --lags 0,1": "20a06b781f72429abc30e5f455494ce49d8adebbfbf62916a74391e2903c82e1",  # exit 0
    "dump-gram --model tri --n 16": "cf458e5d41f6f408da83d4883394f926df279a49e183ec7a7bd6931974e7080a",  # exit 0
    "dump-spectrum --model tri --n 16": "2ed525f26b28698c5bbd74510af8f3d83de88bda84b8b0143364fa4883c2ceea",  # exit 0
    "rate --model tri --support -1": "0abfc6ecf975a35db66de5d843d5659ee48809883b46b107eb014c7a289eeeab",  # exit 2
    "power-sum --T 10 --n 200 --q 1": "827ac1d208e9b5b9f3a800ec8e74c5493e1cb323ceda0bcd987ec469a1d18abe",  # exit 0
    "power-sum --T 10 --n 200 --q 2": "72f786c4d550e7c818954296972cff0f5706b59b427c275db18e6fd4bfd65972",  # exit 0
    "power-sum --T 10 --n 200 --q 3": "040bb76db907375a1ff8539beb61436eddf3484eca4bc5b42f2ec3f93dbfb1fe",  # exit 0
    "power-sum --T 10 --n 200 --q 4": "b59722a92aaacc8a0860ae437e7f313d88d43cf8473e508ac47365f2fc254c67",  # exit 0
    "rate --format csv --schedule 5:50,10:100": "1b437c2f7f38d7a8cc5910bfa1af762191abee7cccaf59cbcc095847f8e73385",  # exit 0
    "rate --model banana": "77af34163a69c4b0a32baf410026ac353a2f364fd804c6a46b66c23acfbc3f52",  # exit 2
    "rate --model ou --width 2": "1dce9f0a1ac654ff2a1a5923d757548cce6b50d537b63be8664734d655bbab91",  # exit 2
    "rate --model gauss --support 2": "0d13c3bc37b764075307106f0c5ff59564995fddeb46a50b3625dc211b4e4f87",  # exit 2
    "rate --model tri --rate-param 2": "78c3ec8ff084ded21bc7a7a9a47d92cc4d3dc7a30a5171356e8c42d04c192e17",  # exit 2
    "rate --model ou --width 1.0": "1dce9f0a1ac654ff2a1a5923d757548cce6b50d537b63be8664734d655bbab91",  # exit 2
    "rate --schedule 5:100,4:80": "cf40e4aa133b2587b1f1469cf6cf40ba487ebe420b088ede5a4237cb132edd1d",  # exit 2
    "rate --schedule 5x100": "5da343c3d76a48fad9af64c75bd8cebd08d905ebffe99c854e2b2f1784b90a46",  # exit 2
    "rate --tol 0": "5d1315529feff3be94095043e3e83e61c8bed17c7e0357e98f06ded97cffd3ba",  # exit 2
    "rate --seed -1": "fa15322184b1bdf4b8d375cd5ad2ead2e97f6058b8829e54af262edee85f54b0",  # exit 2
    "mc-validate --seed -1": "9860986114fa0f29a53ccc0469d50041bd027ae84f7e421d3a5d37308e2a567f",  # exit 2
    "rate --format xml": "f160a658b98a9997e63a9b0c11edc216bc98ea340e022b02d14a8993bfceec98",  # exit 2
    "power-sum --q 5": "ea240a362ca9ed524a7e0602d24cb6c08d7c1e631bda2ff409670f440c9dc52b",  # exit 2
    "power-sum --q 0": "10e4f8d941767e623cc05981811592a5b34e82d16e2454b03a66fee2a7ad4081",  # exit 2
    "power-sum --T -3": "cd9409fb463228ce87dac4fb4c20b87e66b331c437a7e1b9add2bc74685c0123",  # exit 2
    "power-sum --n 0": "2b2ef812cdcbf93426029cc29d477da07513a31aa8d9d62844fea7a4ce361a8d",  # exit 2
    "sandwich --degree 0": "34a40e2f01f64aeb37768a1b2315eb8e35ab8df216cd8c182ea9c6b497cbd239",  # exit 2
    "sandwich --domain-max -1": "c7f55433303ae6e6fa55f64c3f6b7b588c63e00172acb259c4e590a11c0d2d76",  # exit 2
    "sandwich --domain-max 1e200": "68731f9f98e51d9f448002c2f6a9309f63743a807e433ee9907d609d3b6acba2",  # exit 2
    "mc-validate --paths 10": "07bbc59a04111e3fff19c52f5c4142aea228aad9fb3956adb9964259912e3318",  # exit 2
    "mc-validate --refine 2": "c5b24b2f602c4c6b9a15ba4fc84654d44b650cabf6175736894c6140952a0435",  # exit 2
    "mc-validate --lags 0,100": "90816a928a2541714a62df87636d4acf4996798b4a2faaa17fe69302f5bd3123",  # exit 2
    "mc-validate --lags 0,x": "97eeab9fcc5b3241431f283e0feb2fea9893cf8efc93cebc8befc12d9480abcd",  # exit 2
    "rate --no-such-flag": "7f05c70f71fbe13f027075e02b17a112c07784a54f82cdadfce07b72dabf8db4",  # exit 2
    "": "b62e183d0d8e71e7190b8ff79a3fe999fe706df14d5d8736e992db57b8957535",  # exit 2
    "frobnicate": "804eec66394a835732c9b9068a1d9feff44ffaff74ff0e58f30e67db03c6dc38",  # exit 2
    "sandwich --degree 1029": "a0c97692ba5bc2f65cde33681e0da94ac96ab0b6ad97f2418e7ff984697ef828",  # exit 2
    "sandwich --power 0": "b60e1441174e4c53c27949f427882b13ffa785eb7f1248e66e7185b9304a220f",  # exit 2
    "rate --tol 0 --seed -1": "fa15322184b1bdf4b8d375cd5ad2ead2e97f6058b8829e54af262edee85f54b0",  # exit 2
    "power-sum --tol 0 --q 5": "5d1315529feff3be94095043e3e83e61c8bed17c7e0357e98f06ded97cffd3ba",  # exit 2
    "rate --tol 0 --rate-param -1": "ce490b5226881f0be2b0bcff1fdb5bbaa8c60b2befe2ab6e1d34dc1d075c27f1",  # exit 2
    "power-sum --q 5 --T -3": "cd9409fb463228ce87dac4fb4c20b87e66b331c437a7e1b9add2bc74685c0123",  # exit 2
    "power-sum --n 0 --q 0": "2b2ef812cdcbf93426029cc29d477da07513a31aa8d9d62844fea7a4ce361a8d",  # exit 2
    "sandwich --degree 0 --domain-max -1": "34a40e2f01f64aeb37768a1b2315eb8e35ab8df216cd8c182ea9c6b497cbd239",  # exit 2
    "sandwich --power 0 --degree 2000": "a1517e375872914dc36a57d633c468924eeaa6f6b5f690590162bc48a0d9503f",  # exit 2
    "mc-validate --paths 10 --refine 2": "c5b24b2f602c4c6b9a15ba4fc84654d44b650cabf6175736894c6140952a0435",  # exit 2
    "mc-validate --lags 0,100 --paths 10": "07bbc59a04111e3fff19c52f5c4142aea228aad9fb3956adb9964259912e3318",  # exit 2
    "rate --model ou --width 2 --power -1": "1dce9f0a1ac654ff2a1a5923d757548cce6b50d537b63be8664734d655bbab91",  # exit 2
}


@pytest.mark.parametrize("argv", _invocations(), ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_report_matches_golden_digest(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    digest = hashlib.sha256(repr((code, captured.out, captured.err)).encode()).hexdigest()
    assert digest == GOLDEN[" ".join(argv)], (
        f"report changed for `szegolab {' '.join(argv)}`\n"
        f"exit code: {code}\n--- stdout ---\n{captured.out}--- stderr ---\n{captured.err}"
    )
