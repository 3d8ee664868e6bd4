"""Golden bytes: the file formats do not change.

Each digest is the sha256 of a text as the writer produced it before it
wrote text directly; a change of format, of argument order or of the order
of a sequent's formulas shows here.
"""

import hashlib
import random

import pytest

from proofbench import gens
from proofbench.cli import EXIT_OK, main
from proofbench.derivations import code_text
from proofbench.formulas import sequent_text
from proofbench.orderings import spec_text

TI_WRITTEN_OUT = {
    "(fin 1)": "d41a178d79d266f14f61ebb685b0d8cedef6531eaa21133b7ff04ccde9703f3c",
    "(fin 2)": "765f7e514585af75d4f37e66f6353c0f2c6b09094b7bc0efce04020719cdec62",
    "(fin 3)": "332173de7cfe70289e48fffbe0ce94cb33a24dd79923444520dd3b81db404f8b",
    "(fin 4)": "0a8d35252d5352c9ec92068f9a8bedbf9232f55f09d7ad770fcc6c385c77fdac",
    "(fin 5)": "8de1e6084beafb2ebc31ecc0dc119daf16cfddcf2e752a1cdefa540ca306397e",
    "(fin 6)": "11aa35155635cca3876ec267329f8bd7c89ef3748a6e9967271ff5a029bed440",
    "(fin 7)": "5e81b281582fbf1138f449f891b73dc95aeabde1a175d368e5f3b1f44785b35e",
    "(fin 8)": "a77de2426c308646aa9dcab96e837e1fde235875ee5de6ae8fb06f2adaa1d106",
    "(fin 9)": "9bb74b02fbe08376312eee89789df66d7ee31cd2a250dfc48669c9498ca59721",
    # written by the direct writer, before it wrote a shared subterm once
    "(fin 10)": "f304f508f7055ea7fc79712980c15aa71c64a2174316f0d9134a0f59f4ff83de",
    "(fin 11)": "321db4ffa8e886afc93f4fa2b9d949f62d46f67cd187f1723864198c687cdeaf",
    "(fin 12)": "b8bff719c1dc00308905a5ee5f056161d3b14ad6c1856abcadc18282a1525d6a",
}

TI_COMPACT = {
    "(fin 9)": "5a645d2dc48c5ea1ac0cec741be7c59de500cc86eac0c05eef4e1b056cba0356",
    '(below "w^2")': "92408346122a06dcd3d708dc7ab46368ac7d9402e6b2b4f7338a2a916f0ddf2a",
    '(sum (fin 3) (below "w"))': "f08984569611125f5942db3137c4710a4b6e36f3a4552fe84afbac21ce21d3a5",
    '(lex (below "w") (fin 3))': "3ac692ff0237b5ccb8f9d895874b27b363c2bffadbf61885605334b417220d54",
}

# 300 values from random.Random(0), their texts joined by newlines
RANDOM = {
    "random_code": (gens.random_code, code_text,
                    "40eaf3aa8f9c170af2712b582f68c1323d5d1cc73f006a49c98283ec9687721c"),
    "random_sequent": (gens.random_sequent, sequent_text,
                       "123f0cc7645ca1acd57b4da2cb0191d4e34b4b2500678bf326a92eaaec5e6fe7"),
    "random_spec": (gens.random_spec, spec_text,
                    "99a556a5f3291a9727d65a004e0318457da0b92f8d687276827d8094ba4211f2"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ti_text(capsys, *argv) -> str:
    assert main(["ti", *argv]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out[:-1]


@pytest.mark.parametrize("spec", list(TI_WRITTEN_OUT))
def test_ti_written_out(capsys, spec):
    assert sha256(ti_text(capsys, spec)) == TI_WRITTEN_OUT[spec]


@pytest.mark.parametrize("spec", list(TI_COMPACT))
def test_ti_compact(capsys, spec):
    assert sha256(ti_text(capsys, spec, "--compact")) == TI_COMPACT[spec]


@pytest.mark.parametrize("name", list(RANDOM))
def test_random_values(name):
    gen, text, digest = RANDOM[name]
    rng = random.Random(0)
    assert sha256("\n".join(text(gen(rng)) for _ in range(300))) == digest
