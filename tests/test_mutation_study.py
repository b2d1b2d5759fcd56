"""The mutation study of scripts/mutation_study.py stays runnable: every
mutation's target text still occurs exactly once in src/."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_study():
    spec = importlib.util.spec_from_file_location(
        "mutation_study", ROOT / "scripts" / "mutation_study.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STUDY = load_study()


@pytest.mark.parametrize(
    "label, file, text, replacement", STUDY.MUTATIONS, ids=[m[0] for m in STUDY.MUTATIONS]
)
def test_mutation_target_occurs_once(label, file, text, replacement):
    code = (ROOT / "src" / file).read_text(encoding="utf-8")
    assert code.count(text) == 1
    assert code.replace(text, replacement) != code


def test_labels_are_distinct():
    labels = [label for label, *_ in STUDY.MUTATIONS]
    assert len(set(labels)) == len(labels)
