"""Replay of the README's worked CLI examples through `conedom.cli.main`.

`readme/market.json` is the README's scene and `readme/examples.json` its
example commands with the output fields the README shows. Each command
runs in-process with stdout captured; a `partial` example compares only
the fields shown (the README elides the rest with `...`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from conedom import cli

READMEDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "readme")


def replay() -> list[tuple[str, str | None]]:
    """(command, failure message or None) for each README example."""
    with open(os.path.join(READMEDIR, "examples.json"), encoding="utf-8") as fh:
        examples = json.load(fh)
    scene = os.path.join(READMEDIR, "market.json")
    results = []
    for ex in examples:
        argv = [scene if a == "{scene}" else a for a in ex["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        problem = None
        try:
            payload = json.loads(out.getvalue())
        except json.JSONDecodeError:
            payload = None
        if code != ex["exit"]:
            problem = f"exit code {code}, README shows {ex['exit']}"
        elif not isinstance(payload, dict):
            problem = "output is not a JSON object"
        else:
            got = {k: payload.get(k) for k in ex["shown"]} if ex.get("partial") else payload
            if got != ex["shown"]:
                problem = f"output {got} differs from the README"
        results.append((ex["argv"][0], problem))
    return results
