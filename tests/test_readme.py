"""The README's documented defaults must match the code."""
import os
import re

from paddle_lab import build_model, model_to_dict
from paddle_lab.cli import build_parser
from paddle_lab.model import MODEL_JSON_KEYS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme() -> str:
    with open(README) as fh:
        return fh.read()


def test_readme_model_defaults_match_code():
    # rows of the "Model configuration JSON" table: | `key` | `default` | meaning |
    table = dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", _readme(), re.MULTILINE))
    assert set(table) == set(MODEL_JSON_KEYS)
    defaults = model_to_dict(build_model().model)
    assert {k: float(v) for k, v in table.items()} == defaults


def test_readme_out_default_matches_parser():
    match = re.search(r"\(`--out`, default `([^`]+)`", _readme())
    assert match, "README must state the --out default"
    assert build_parser().parse_args(["design"]).out == match.group(1)
