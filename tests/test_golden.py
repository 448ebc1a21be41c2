"""Golden output bytes of the mesh subcommands.

Each case runs `curvint.cli.run` in process, in a fresh temporary working
directory that holds its input files, with relative paths, so that every
message is stable. Its transcript (the command line, the exit code,
stdout, stderr, and every file the run wrote there) must equal its
golden file under tests/golden/ byte for byte; a failure names the first
line that differs. `python tests/test_golden.py --update` rewrites the files.

The inputs use only arithmetic that every platform and numpy version
rounds alike: the level-1 icosphere and the 4 x 4 grid, each vertex
moved by a fixed offset in sixty-fourths (exact in binary). No random
stream and no transcendental function makes them.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout: the package is in src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

import curvint as ci
from curvint import cli

from conftest import suffixed

GOLDEN = Path(__file__).resolve().parent / "golden"


def _jiggled(mesh: ci.TriMesh) -> ci.TriMesh:
    """mesh with vertex i moved by ((i, 3i, 5i) mod 7 - 3) / 64."""
    k = np.arange(mesh.n_vertices)[:, None] * [1, 3, 5] % 7
    return ci.TriMesh(mesh.positions + (k - 3) / 64, mesh.faces)


_GRID = _jiggled(ci.make_grid(4))
ICO_OFF = ci.mesh_to_text(_jiggled(ci.make_icosphere(1)), "off")
GRID_OBJ = ci.mesh_to_text(_GRID, "obj")
FIELD = "vertex,value\n" + "".join(f"{v},{x * x + y * y!r}\n"  # x^2 + y^2
                                   for v, (x, y, _) in enumerate(_GRID.positions.tolist()))
BAD_OFF = "OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n"

# case -> (its input files by name, its command line); its golden file is
# tests/golden/<case>.txt, or that of the case it must match byte for byte
CASES = {
    "make_grid_off": ({}, "make --kind grid --n 4 --output grid4.off"),
    "make_grid_obj": ({}, "make --kind grid --n 4 --output grid4.obj"),
    "make_icosphere_off": ({}, "make --kind icosphere --level 1 --output ico1.off"),
    "make_icosphere_obj": ({}, "make --kind icosphere --level 1 --output ico1.obj"),
    "curvature_closed_off": ({"ico1.off": ICO_OFF}, "curvature --input ico1.off"),
    "curvature_open_obj": ({"grid4.obj": GRID_OBJ}, "curvature --input grid4.obj"),
    "curvature_open_obj_suffixed": ({"grid4.obj": suffixed(GRID_OBJ, "/1/1")},
                                    "curvature --input grid4.obj"),
    "gradcheck_closed_off": ({"ico1.off": ICO_OFF}, "gradcheck --input ico1.off"),
    "laplacian_open_obj": ({"grid4.obj": GRID_OBJ, "field.csv": FIELD},
                           "laplacian --input grid4.obj --field field.csv"),
    "flow_closed_off": ({"ico1.off": ICO_OFF}, "flow --input ico1.off --dt 0.01 --steps 3"
                                               " --output trace.csv --final-mesh final.off"),
    "make_refuses_a_parameter": ({}, "make --kind icosphere --n 5 --output ico.off"),
    "flow_refuses_an_open_mesh": ({"grid4.obj": GRID_OBJ},
                                  "flow --input grid4.obj --dt 0.01 --steps 3"),
    "curvature_refuses_a_malformed_line": ({"bad.off": BAD_OFF}, "curvature --input bad.off"),
}
# /vt/vn suffixes are read record by record, to the same bytes
SAME_AS = {"curvature_open_obj_suffixed": "curvature_open_obj"}


def transcript(inputs: dict, command: str) -> str:
    """The command line, exit code, stdout, stderr and written files of
    one in-process run, in a fresh working directory holding inputs."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in inputs.items():
                Path(name).write_text(text)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(command.split())
            written = {name: Path(name).read_text()
                       for name in sorted(os.listdir()) if name not in inputs}
        finally:
            os.chdir(home)
    sections = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                **{f"file {name}": text for name, text in written.items()}}
    return f"== curvint {command}\n== exit {code}\n" + "".join(
        f"== {title}\n{text}" for title, text in sections.items())


def first_difference(actual: str, expected: str) -> str:
    """Where actual first differs from expected, by line, for a failure message."""
    lines, golden = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    n = next((n for n, pair in enumerate(zip(lines, golden)) if pair[0] != pair[1]),
             min(len(lines), len(golden)))
    got, want = (part[n] if n < len(part) else "<end of text>" for part in (lines, golden))
    return f"line {n + 1}: got {got!r}, golden {want!r}"


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_the_golden_file(case):
    golden = SAME_AS.get(case, case)
    actual = transcript(*CASES[case])
    expected = (GOLDEN / f"{golden}.txt").read_bytes().decode()
    assert actual == expected, f"{golden}.txt {first_difference(actual, expected)}"


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(set(CASES) - set(SAME_AS))


def update() -> None:
    """Rewrite the golden file of every case that has its own."""
    GOLDEN.mkdir(exist_ok=True)
    for case in set(CASES) - set(SAME_AS):
        (GOLDEN / f"{case}.txt").write_bytes(transcript(*CASES[case]).encode())
    print(f"wrote {len(CASES) - len(SAME_AS)} files in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    update()
