"""Golden CLI reports: the regression oracle for refactors.

Each pinned invocation runs ``szegolab.cli.main`` in process and is reduced to
the SHA-256 of (exit code, stdout, stderr).  The digests were measured with
numpy 2.4.6 and scipy 1.17.1; a change that alters any report byte, exit code
or message fails here and prints the report it produced.
"""

import hashlib

import pytest

from szegolab.cli import main

_SCHEDULE = ("--schedule", "5:50,10:100")
_MODELS = (
    ("ou", "--rate-param", "0.8"),
    ("gauss", "--width", "1.3"),
    ("tri", "--support", "0.9"),
)


def _invocations():
    out = []
    for name, flag, value in _MODELS:
        model = ("--model", name)
        tuned = (*model, "--power", "1.5", flag, value)
        out.append(("rate", *tuned, *_SCHEDULE))
        out.append(("equivalence", *tuned, *_SCHEDULE))
        out.append(("sandwich", *model, *_SCHEDULE))
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
    return out


GOLDEN = {
    "rate --model ou --power 1.5 --rate-param 0.8 --schedule 5:50,10:100": "288cfc7814f15c83f6f291c26976f9ae17169f231a85676e9b02c4bfd5bc913f",  # exit 0
    "equivalence --model ou --power 1.5 --rate-param 0.8 --schedule 5:50,10:100": "f53a7ee7d51f11a068bfe0f6dbcc8b27d79bdd0bd2a555eb82bc7a914d09b63e",  # exit 0
    "sandwich --model ou --schedule 5:50,10:100": "02d933ae02edab60b880513dddb0dece733185410ed25e5dba8918d1f8c68fec",  # exit 0
    "mc-validate --model ou --n 20 --paths 200 --lags 0,1": "f17a0797873d6c89806edaf4c88f62f2ab040fab32e2a23b528d9744e6a454bf",  # exit 0
    "dump-gram --model ou --n 16": "4a5594ebcf8e61951e9b0b579524cc0bda7818afac0f2d54231e3e31c5d3ed4b",  # exit 0
    "dump-spectrum --model ou --n 16": "efe99f5a6b1736ec8c9dbf6ad1bae19848ce2dfa0c4ecdf42a109458471c2fe0",  # exit 0
    "rate --model ou --rate-param -1": "ce490b5226881f0be2b0bcff1fdb5bbaa8c60b2befe2ab6e1d34dc1d075c27f1",  # exit 2
    "rate --model gauss --power 1.5 --width 1.3 --schedule 5:50,10:100": "c3ffbceab32afd7ca14076045610141da7e72f3c183fb4459f5966d3269cd3e0",  # exit 0
    "equivalence --model gauss --power 1.5 --width 1.3 --schedule 5:50,10:100": "427b32b08d7c058035a283c89846c9787e9aedff5eb9ca2729a3e427fd8034bb",  # exit 0
    "sandwich --model gauss --schedule 5:50,10:100": "77590068acb6397ba328642ea952a06cc4fdff1dbe4f30972fa3606910924d05",  # exit 0
    "mc-validate --model gauss --n 20 --paths 200 --lags 0,1": "71ef0b879e16b720f61ad5d46e965249cb1740c230977887470c52f3defa8697",  # exit 0
    "dump-gram --model gauss --n 16": "3e44a37395da8911ec3ca0535ec0b356064077825480f1592483f1d26fa5ea24",  # exit 0
    "dump-spectrum --model gauss --n 16": "5106990c6ec9bbb82721ae128ede195075ca8ee07f8aa93a2cf489873700ee95",  # exit 0
    "rate --model gauss --width -1": "32e696df8e594dc4c18046e5fdbb4ddfc1735dd3ee7dd97ec328520ce8b04ebd",  # exit 2
    "rate --model tri --power 1.5 --support 0.9 --schedule 5:50,10:100": "e47f5aa3e5a501737afa867b97111c650c508a21634fe5582fc9570c0dc2e36d",  # exit 0
    "equivalence --model tri --power 1.5 --support 0.9 --schedule 5:50,10:100": "05e3e9b512b62e8f2043e23228db3d85b592bd5c71414e42e818fae4ae56638a",  # exit 0
    "sandwich --model tri --schedule 5:50,10:100": "25f2269c680e727684688f286c62d1c22634f114e93b96c8db57c343fe4d29b1",  # exit 0
    "mc-validate --model tri --n 20 --paths 200 --lags 0,1": "28babe3ea03b706f4cf81a355f7b6f877ef70fcc5931c7fa421a199defc08e53",  # exit 0
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
}


@pytest.fixture(autouse=True)
def _clean_thread_env(monkeypatch):
    monkeypatch.delenv("SZGL_THREADS", raising=False)


@pytest.mark.parametrize("argv", _invocations(), ids=" ".join)
def test_cli_report_matches_golden_digest(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    digest = hashlib.sha256(repr((code, captured.out, captured.err)).encode()).hexdigest()
    assert digest == GOLDEN[" ".join(argv)], (
        f"report changed for `szegolab {' '.join(argv)}`\n"
        f"exit code: {code}\n--- stdout ---\n{captured.out}--- stderr ---\n{captured.err}"
    )
