"""The package imports only the standard library and its declared dependencies,
and exports exactly its pinned public API."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_only_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in tomllib.load(fh)["project"]["dependencies"]
        }
    code = (
        "import sys; before = set(sys.modules); import linkspec; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "linkspec" in loaded and "scipy" not in loaded
    assert loaded - set(sys.stdlib_module_names) - {"linkspec"} <= declared


def test_import_and_check_leave_networkx_unloaded(tmp_path):
    # networkx serves only max_matching_graph, the blossom matching of a
    # 2-graph, so it is imported on first use; check, shift and the lift never load it
    path = tmp_path / "h.h3"
    code = (
        "import sys; import linkspec; assert 'networkx' not in sys.modules, 'import'; "
        "from linkspec import cli, constructions, fileio; "
        f"fileio.save_instance(constructions.random_3graph(12, 0.8, 1).hypergraph, {str(path)!r}); "
        f"code = cli.main(['check', {str(path)!r}, '--s', '3', '--mode', 'thm13', '--gamma', '0.05', "
        f"'--no-timing', '-o', {str(tmp_path / 'report.json')!r}]); "
        "assert code == 0; assert 'networkx' not in sys.modules, 'check'; "
        f"code = cli.main(['shift', {str(path)!r}, '--limit', '0', '--lift-s', '1', "
        f"'--no-timing', '-o', {str(tmp_path / 'shift.json')!r}]); "
        "assert code == 0; print('networkx' in sys.modules)"
    )
    path_env = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path_env),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False"]


def test_fractional_matching_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma, about 1.5 MiB of peak memory in every shift or sweep process
    code = (
        "import sys; from linkspec import constructions, lp; "
        "assert 'numpy.ma' not in sys.modules, 'import'; "
        "lp.fractional_matching(constructions.random_3graph(12, 0.8, 1).hypergraph); "
        "print('numpy.ma' in sys.modules)"
    )
    path_env = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path_env),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False"]


PUBLIC_API = {
    # graphs
    "Graph2", "Hypergraph3", "complement", "induced", "link_graph",
    # spectral
    "LinkSpectra", "SpectralReport", "hong_bound", "link_spectra", "spectral_radius",
    "stanley_bound", "terpai_gap", "threshold_fyz", "threshold_match",
    # matching
    "Matching3", "Matching3Result", "max_matching_3graph", "max_matching_graph",
    # lp
    "DualityCertificate", "FractionalAssignment", "fractional_matching",
    # constructions
    "LabeledInstance", "complete_3graph", "h1", "h2", "random_3graph",
    # harness
    "CheckReport", "ShiftedPair", "absorbing_sets", "check_condition", "lemma25_check",
    "lift_link_matching", "search_exhaustive", "search_random", "shift", "shift_closure_holds",
    "verify_theorem",
}


def test_public_api_is_pinned():
    # a new public helper must be added here on purpose
    import linkspec

    exported = {
        name for name, value in vars(linkspec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_API
