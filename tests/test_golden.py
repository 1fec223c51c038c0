"""Golden reports: the demo tour, run in-process, reproduces demos/out/ byte for byte.

Every `run NAME VERB ARGS...` line of demos/cli_tour.sh is replayed through
`cli.main`, in script order, with `data/` read from demos/data and `out/`
redirected into a temporary directory (later steps read the chains that
earlier steps wrote there).  Each report must equal the tracked file.
"""

import pathlib
import shlex

from polyban.cli import main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def tour_steps() -> list[tuple[str, list[str]]]:
    steps = []
    for line in (DEMOS / "cli_tour.sh").read_text(encoding="utf-8").splitlines():
        words = shlex.split(line)
        if len(words) >= 3 and words[0] == "run":
            steps.append((words[1], words[2:]))
    return steps


def test_tour_reports_are_byte_identical(tmp_path):
    steps = tour_steps()
    assert len(steps) == 15

    def place(word: str) -> str:
        for prefix, root in (("data/", DEMOS / "data"), ("out/", tmp_path)):
            if word.startswith(prefix):
                return str(root / word[len(prefix):])
        return word

    for name, argv in steps:
        out = tmp_path / f"{name}.json"
        assert main([place(w) for w in argv] + ["--out", str(out)]) == 0, name
        golden = (DEMOS / "out" / f"{name}.json").read_bytes()
        assert out.read_bytes() == golden, name
