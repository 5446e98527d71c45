"""Rewrite `tests/report_pins.json` from the code, and print each line that
changed as old -> new.

    python tests/repin.py

The pin file holds the sha256 of every report that `verify` and
`paper-tables` print, one line each, keyed by what prints it:

- `verify --identity X`, each identity of `identities.REGISTRY` at its
  defaults (`--with-oracle` for `oracle`), and the same call with `--nmax`
  and the parameters of each of its `at_scale` entries;
- `verify --identity all --with-oracle`, the whole report;
- `paper-tables: LABEL`, the line that `paper-tables` prints for each case
  of `identities.PAPER_TABLES`, and `paper-tables`, its whole output.

`tests/test_pin.py` recomputes every line but the at-scale ones, which CI's
at-scale loop checks, and compares each line that `perfbench/expected.json`
pins under the same key with that file.  This script writes the pin file
only.  It lists each `expected.json` entry that no longer agrees: only a
re-pin of the benchmark (`perfbench/pin.py`) mends those.  It takes about
20 s on a 2-vCPU VM, most of it the at-scale lines.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from dowling import cli  # noqa: E402
from dowling.identities import PAPER_TABLES, REGISTRY, report  # noqa: E402

PINS = Path(__file__).with_name("report_pins.json")
EXPECTED = ROOT / "perfbench" / "expected.json"
VERIFY_ALL = "verify --identity all --with-oracle"
TABLES = "paper-tables"


def identity_call(ident, entry=None) -> str:
    """The `verify` call that prints the report of `ident` at its defaults,
    or at one of its `at_scale` entries."""
    flags = [f"--{key} {value}" for key, value in (entry or {}).items()]
    if ident.needs_oracle:
        flags.append("--with-oracle")
    return " ".join(["verify --identity", ident.name, *flags])


def case_key(label: str) -> str:
    return f"{TABLES}: {label}"


def keys() -> list:
    """The key of every line, in the pin file's order."""
    calls = [
        call
        for ident in REGISTRY.values()
        for call in (identity_call(ident), *(identity_call(ident, entry) for entry in ident.at_scale))
    ]
    return [*calls, VERIFY_ALL, *(case_key(label) for label, _, _ in PAPER_TABLES), TABLES]


def read() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_sha256(result: dict) -> str:
    """The sha256 of a report as `verify` prints it."""
    return sha256((json.dumps(result, indent=2) + "\n").encode())


def _printed(call: str) -> bytes:
    """The stdout of one CLI call, made in this process."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(call.split())
    return stdout.getvalue().encode()


def default_pins() -> dict:
    """Every line but the at-scale ones, each output computed once; the
    oracle's census is cached, so `all` adds little to the identities."""
    pins = {call: sha256(_printed(call)) for call in map(identity_call, REGISTRY.values())}
    pins[VERIFY_ALL] = sha256(_printed(VERIFY_ALL))
    tables = _printed(TABLES)
    lines = tables.splitlines(keepends=True)
    pins.update((case_key(label), sha256(line)) for (label, _, _), line in zip(PAPER_TABLES, lines))
    pins[TABLES] = sha256(tables)
    return pins


def at_scale_pins() -> dict:
    return {
        identity_call(ident, entry): report_sha256(
            report(ident, {key: value for key, value in entry.items() if key != "nmax"}, entry["nmax"])
        )
        for ident in REGISTRY.values()
        for entry in ident.at_scale
    }


def main() -> int:
    old = read() if PINS.exists() else {}
    computed = {**default_pins(), **at_scale_pins()}
    new = {key: computed[key] for key in keys()}
    changed = [key for key in {**old, **new} if old.get(key) != new.get(key)]
    for key in changed:
        print(f"{key}: {old.get(key, '(none)')} -> {new.get(key, '(none)')}")
    PINS.write_text("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in new.items()) + "\n}\n")
    print(f"{len(changed)} of {len(new)} lines changed in {PINS.relative_to(ROOT)}")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["verify"]
    for key in sorted(expected.keys() & new.keys()):
        if expected[key]["sha256"] != new[key]:
            print(f"{EXPECTED.relative_to(ROOT)} no longer agrees: {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
