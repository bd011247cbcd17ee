"""Golden digests of the CLI's output: every family and route, replayed in-process.

Each request in ``REQUESTS`` runs through ``cli.main``; its exit code and the
sha256 of its stdout must match ``golden_cli.json``.  A refactor that keeps
the CLI/JSON contract byte-identical passes unchanged; one that moves a digit,
a bound or a symbolic term names the first request whose output differs.

The JSON requests pin the payloads; a few text-mode requests pin the
renderers, ``cli._render_text`` and ``VerifyReport.render_table``.

Regenerate the digests from the current source with

    python3 tests/test_golden.py

which prints each request whose digest changed, was added or was removed,
then one line counting them; a changed digest is a changed contract.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

_SHAPES = (
    *(("integral", kind, str(n)) for kind in ("I", "J", "K", "logsine") for n in range(1, 8)),
    ("zeta", "3"), ("zeta", "5"), ("zeta", "3", "2"), ("zeta", "3", "2", "2"),
    ("zeta", "3", "1", "1"), ("zeta", "2", "1"), ("zeta", "2", "1", "1"), ("zeta", "4", "2"),
    ("tvalue", "2"), ("tvalue", "3"), ("tvalue", "3", "2"), ("tvalue", "3", "2", "2"),
    ("tvalue", "2", "1"), ("tvalue", "2", "2", "1"), ("tvalue", "2", "2", "2", "1"),
    ("tvalue", "2", "2", "2", "2", "1"), ("tvalue", "4", "2"),
    ("mu", "2"), ("mu", "2", "1"), ("mu", "2", "1", "1"), ("mu", "3"), ("mu", "3", "2"),
    ("bigT", "3"), ("bigT", "2", "1"), ("bigT", "2", "1", "1"), ("bigT", "3", "2"),
    ("constants", "pi"), ("constants", "log2"), ("constants", "psi3_quarter"),
    *(("constants", name, str(m)) for name, ms in (
        ("zeta", (2, 3, 4, 5)), ("eta", (1, 2, 3)), ("beta", (1, 2, 3, 4)), ("t", (2, 3, 5)),
    ) for m in ms),
    ("eulersum", "3", "1"), ("eulersum", "4", "1"), ("eulersum", "2", "1", "1"),
    ("cbsum", "inverse_square"), ("cbsum", "alt_inverse_cube"), ("cbsum", "inverse_fourth"),
    *(("oddsum", fam, str(p), str(q)) for fam in "OB" for p in range(2, 5) for q in range(2, 5)),
)

REQUESTS = (
    *((*shape, "--json", "--symbolic", "--prec", str(prec))
      for prec in (16, 50) for shape in _SHAPES),
    *(("series-coeff", fam, str(N), str(k), "--json")
      for fam in ("G", "H", "arctanh") for N in range(5) for k in range(13)),
    ("verify", "--suite", "all", "--prec", "30", "--json"),
    # text mode
    ("tvalue", "2", "2", "1", "--method", "all", "--symbolic", "--prec", "30"),
    ("tvalue", "2", "2", "2", "2", "1", "--prec", "30"),
    ("integral", "I", "5", "--method", "quadrature", "--prec", "30"),
    ("series-coeff", "H", "3", "6"),
    ("verify", "--suite", "all", "--prec", "30"),
)


def digest(argv) -> list:
    """[exit code, sha256 of stdout] of one in-process CLI request."""
    from multizeta import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_cli_output_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in REQUESTS)
    for argv in REQUESTS:
        request = " ".join(argv)
        assert digest(argv) == golden[request], f"output differs from the golden digest: {request}"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {" ".join(a): digest(a) for a in REQUESTS}
    lines = [f"{json.dumps(request)}: {json.dumps(d)}" for request, d in new.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    counts = {"changed": 0, "added": 0, "removed": 0}
    for request in sorted(old.keys() | new.keys()):
        if request not in new:
            kind = "removed"
        elif request not in old:
            kind = "added"
        elif old[request] != new[request]:
            kind = "changed"
        else:
            continue
        counts[kind] += 1
        print(f"{kind + ':':<9}{request}")
    print(f"{len(new)} requests: " + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
