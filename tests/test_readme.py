"""The README's documented defaults must match the code."""
import os
import re

from paddle_lab import build_model, model_to_dict
from paddle_lab.cli import build_parser, main
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


def test_readme_csv_schemas_match_cli(tmp_path):
    # run each command that writes a CSV once, then compare every header with its README line
    schemas = dict(re.findall(r"^- `(\w+\.csv)`: `([^`]+)`$", _readme(), re.MULTILINE))
    for argv in ("design", "curves --which capacitance --points 3",
                 "curves --which force --points 3", "curves --which film-beam --points 3",
                 "sweep --electrode bottom --v-max 50 --points 3", "calibrate", "measure --n 3"):
        assert main(argv.split() + ["--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(schemas)
    for name in written:
        with open(tmp_path / name, newline="") as fh:
            assert fh.readline() == schemas[name] + "\n", name
