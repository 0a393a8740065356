"""What a symbio process imports: `import symbio.cli` loads only the modules
every command runs, and a command loads the others only when it needs them.
Checked in a fresh `python -S` interpreter, so that nothing this test run
imported is already loaded."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Modules `import symbio.cli` leaves unloaded: dataclasses (which imports
#: inspect, ast, dis and tokenize), typing, and the modules of the exchange
#: model, of incentive synthesis and of MC-nets.
LAZY = ["dataclasses", "inspect", "typing", "symbio.exchange", "symbio.coordination",
        "symbio.mcnets"]

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
watched = {watched!r}
loaded = lambda: [name for name in watched if name in sys.modules]
import symbio.cli
seen = {{"import": loaded()}}
for path in {paths!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = symbio.cli.main(["analyze", path])
    seen[path] = [code, loaded()]
print(json.dumps(seen))
"""


def test_commands_load_only_what_they_run():
    table, exchange = ROOT / "tests" / "data" / "g3_prime.json", ROOT / "tests" / "data" / "w.json"
    code = PROBE.format(src=str(ROOT / "src"), watched=LAZY, paths=[str(table), str(exchange)])
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         encoding="utf-8", check=True, timeout=60).stdout
    seen = json.loads(out)
    assert seen["import"] == []
    assert seen[str(table)] == [0, []]  # a table analyze: none of them either
    code, loaded = seen[str(exchange)]
    assert code == 0 and "symbio.exchange" in loaded
    assert not {"dataclasses", "inspect", "typing"} & set(loaded)
