"""Golden CLI outputs: each recorded call must give the same exit code and
byte-identical stdout and stderr.

``data/golden_cli.json`` lists argv, exit code and the sha256 of stdout and
of stderr for ``validate``, ``levels`` and ``dim`` on the map-type fixtures
and ``strata`` and ``building`` on the divisor fixtures, in human form and
with ``--json``; then the same calls on two broken inputs, whose violation
messages must come out in one order whatever ``PYTHONHASHSEED`` is; then
``glue`` on four gluing files (``data/glue-*.json`` but the malformed
``glue-no-directions``), human and ``--json``, the one subcommand that
prints every torsion branch in order; then ``levels`` on
``data/neck2-two-level.json``, human and ``--json``, a multibuilding whose
equation at level 2 subtracts the level-1 rate of its own scaling
component; then ``validate``, ``levels`` and ``dim`` on
``data/no-nodes.json``, human and ``--json``, a map type with no nodes,
whose level system has no equations and the witness all ones; then the
same three on ``data/enhanced-only.json``, human and ``--json``, ``neck2``
with one leading coefficient changed so that only enhanced matching fails:
``validate`` exits 1 while ``levels`` and ``dim`` exit 0.  An argument
``@name`` stands for a file holding the built-in fixture ``name``, or
``data/name.json`` when no fixture has that name.  The table was
recorded once, from a build whose outputs had been checked, and nothing
here rewrites it: a changed output is a failure to explain, not to
re-record.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ncd_moduli.cli import run
from ncd_moduli.fixtures import CATALOG

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_cli.json").read_text(encoding="utf-8"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file(tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.json"
    text = CATALOG[name].text() if name in CATALOG else (DATA / f"{name}.json").read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_golden_output(capsys, tmp_path, entry):
    argv = [_file(tmp_path, a[1:]) if a.startswith("@") else a for a in entry["argv"]]
    code = run(argv)
    out, err = capsys.readouterr()
    got = (code, _sha256(out), _sha256(err))
    want = (entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"])
    assert got == want, f"ncd-moduli {' '.join(entry['argv'])}"
