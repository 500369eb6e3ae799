"""Traced stand-in for one ``python -m spectralbvp.cli --spec S --out O`` call.

Replays ``cli.run`` through its public pieces (``parse_problem_file``,
``validate_problem``, the kind's runner, ``render_csv``/``render_json``) and
prints the spans it measured as one JSON list on stdout:
``[name, start, end]`` with ``time.perf_counter`` stamps.

Usage: python3 bench/cli_child.py SPEC OUT
"""

import json
import sys
import time

t_import = time.perf_counter()
import spectralbvp  # noqa: E402
from spectralbvp import cli  # noqa: E402


def main(spec_path: str, out_path: str) -> int:
    spans = [["cli.import", t_import, time.perf_counter()]]

    def timed(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        spans.append([name, start, time.perf_counter()])
        return result

    with open(spec_path, encoding="utf-8") as fh:
        text = fh.read()
    tree = timed("cli.parse_problem_file", cli.parse_problem_file, text)
    kind, params, outputs = timed("cli.validate_problem", cli.validate_problem, tree)
    columns, metadata = timed(f"cli.runner.{kind.name}", kind.runner, params)
    metadata = dict(metadata)
    metadata.setdefault("kind", kind.name)
    metadata.setdefault("solver_version", spectralbvp.__version__)
    table = cli.ResultTable(columns=columns, metadata=metadata)
    table.validate()
    render = cli.render_csv if outputs["format"] == "csv" else cli.render_json
    rendered = timed("cli.render", render, table)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rendered)
    print(json.dumps(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
