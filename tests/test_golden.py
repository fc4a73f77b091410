"""Golden outputs: sha256 digests of CLI and library outputs, pinned byte for byte.

Covers `pmm build --emit barcode,presentation,report,model` on every tower
fixture at degree caps 5 and 7, `pmm check` on the saved models, `pmm
decompose` on the module fixture and on seeded persistent complexes, `pmm
factor` on a seeded batch of cell-attachment maps (built as in acceptance
criterion 10), and a seeded batch of map models.  One build also runs in a
fresh interpreter under another PYTHONHASHSEED, and each demo's stdout is
pinned, run in a fresh interpreter under the current one.

An intended output change must update the digests; print the current ones
with `PYTHONPATH=src python -m tests.test_golden`.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pmm.cli import main
from pmm.exactla import QMatrix
from pmm.minimal import build_map_model
from pmm.pcomplex import attach_cell, cohomology
from pmm.persistence import INF, Grid, interval_decompose

from .gen import random_morphism, random_pcomplex, random_sphere_data

FIXTURES = Path(__file__).parent / "fixtures"
TOWERS = ("example1_case1", "example1_case2", "example2", "example3",
          "sphere2", "sphere2_bounded", "sphere3")
CAPS = (5, 7)

GOLDEN = {
    "build:example1_case1:5":
        "c633fe670693968814ac472b8fdd27da5dda9e1e8ea4c9965e125bf38d52aa32",
    "build:example1_case1:7":
        "794b9647321050fe6baa68a25dfc47c3a6b2b953dbd27e69616581f8edc16b0d",
    "build:example1_case2:5":
        "64ceaa3d4925147b244255034009b4aa6a0f79540163072bdeae5cde22d9f567",
    "build:example1_case2:7":
        "a92e386c6d4a1607d0f1892316caf15e54598d136a224ca1f26e4e32c6355aca",
    "build:example2:5":
        "773747126a48a0f4bd856742a89c87f5b56fb53b4a7ea5781295faefe206ed7b",
    "build:example2:7":
        "d91e5eab7148c4edb06035253ea2645cb6b9bd6c5cadbd560402840e5496cf9a",
    "build:example3:5":
        "c55f81b4416206292e1f1608dc33ff1fa3293d5863220c1b6a6568d80954108d",
    "build:example3:7":
        "73aa38c708ea2683df98fb81c3ab520391d96090b5a928f42e469e3655b56aba",
    "build:sphere2:5":
        "39afbf32bd1a22ac9f9e71f447d7982ceb2f2e5048f927c84a61c7ac66289f32",
    "build:sphere2:7":
        "aaa6595a3f8aad4f47c85326ad21241f94f0145867e56161c6c905a52bf7949c",
    "build:sphere2_bounded:5":
        "cb6e138b716e144cf11b7e274cb294978ce2f50d7ee8c4cc562a0a856c111e15",
    "build:sphere2_bounded:7":
        "8b04fd6a4a52cd58d68d419b9574daa9459716e769ca14844d4af92efa621327",
    "build:sphere3:5":
        "44afdbc207e673d9535dd472a7cf62c749d68ef59713ce01b9c559af444cd215",
    "build:sphere3:7":
        "1e3709c434804969df6a3fe55445d0e0122be0a8e3aa2e6c7677a6d81b41f641",
    "check:example1_case1:5":
        "54fb0d1cbcd4f0639df2caf6319222841284fcf2b690bc92c9ca003061153d18",
    "check:example1_case1:7":
        "f952a1a26a211fb1570111d517b14981ab99ae4bb321fc6d34b80e0a73bac41f",
    "check:example1_case2:5":
        "54fb0d1cbcd4f0639df2caf6319222841284fcf2b690bc92c9ca003061153d18",
    "check:example1_case2:7":
        "f952a1a26a211fb1570111d517b14981ab99ae4bb321fc6d34b80e0a73bac41f",
    "check:example2:5":
        "f6366efe5dd3b79953441b3f393be9bea188a2c61f396a8b19d66d7d8551f3cc",
    "check:example2:7":
        "428cc4d8a60b0d541b00531d0c6e358e657548feb95b27e65fdb60e8853018d6",
    "check:example3:5":
        "17d0ae564862f58f199492f4036ea2b38557ab0a77fb4aa03c6265f5e79aa1be",
    "check:example3:7":
        "9af280b35388e2a95a72539ff176391e763f99a357ae40f9aa6c750e28e0f078",
    "check:sphere2:5":
        "0e5f4f7578417bb027f29642ecce5d1faa905a5ce287ffa4f3976eb5db050809",
    "check:sphere2:7":
        "288a516b76d0a1704c3b3d7a4ced9b8e2d040cb96564ef004c3dcf7703011a5b",
    "check:sphere2_bounded:5":
        "6a701099cd10b243e484bbc129d1aef113c970886b8a0060dde9e2ff1365be78",
    "check:sphere2_bounded:7":
        "0b8b3bb62f3921d6c6268839bcb78bc5c338602fcff33c388be284dd61971490",
    "check:sphere3:5":
        "3f7ef167be0d52a89609121612ef821ac74eb7c2cbe0e615a3242843e89c4400",
    "check:sphere3:7":
        "9f6d383858921922a3cce766c706ef34c71a2ab71300c6ec388de1f912ed7806",
    "decompose:module_dims121":
        "e2bc9ea912fce36d425f8fc004eef2a4cdda5e5cdd079b16dd9eb4b84b86e8ff",
    "decompose:pcomplex-batch":
        "11fedef256cb7e3c9bac9be594dbf6dcf7cf8a975651676bd856eababf107b05",
    "cohomology:pcomplex-batch":
        "0bed65d06555d293874bf247abfa37a63bd2a396569ba64f89a5118faee34eb7",
    "factor:batch":
        "c58341480c392355c8a3361df32a70f45af45742520fab0f6104766916d10ec0",
    "map-models:batch":
        "31539017291150846e0bd76f0bef810495451c783f5b8925fdd892c02aa86d8a",
}

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_GOLDEN = {
    "01_interval_decomposition.py":
        "d67193539fd4c90ddf872a1a411a3bf90228ecc51806ebd6411c8cf9d239c2d6",
    "02_minimal_models.py":
        "63b1f6883ec1e5cda8f6526562c456adc396e95a1ecf61a71c43976cfb0937a3",
    "03_persistent_model_walkthrough.py":
        "d2676dc99079452f704bb4bd2cded482e6cf7d3963ca9313018d375ca1c78660",
    "04_model_structure.py":
        "29117d2f6c12b9d2e9816ef0657b9a50f2ed6ef265f6469cf1eca1a8e74b0a81",
}


def run_cli(argv, outdir: Path) -> str:
    """Digest of the exit code, stdout and every file written to outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv + ["--output", str(outdir)])
    h = hashlib.sha256(f"rc={rc}\n{buf.getvalue()}".encode())
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def build_argv(name, cap):
    return ["build", "--input", str(FIXTURES / f"{name}.json"),
            "--degree-cap", str(cap), "--emit", "barcode,presentation,report,model"]


def matrix_doc(m: QMatrix):
    return [[str(x) for x in row] for row in m.data]


def pcomplex_doc(x):
    """The document `pmm decompose` and `pmm factor` read for a complex."""
    n, md = len(x.grid), x.max_degree
    return {
        "grid": [str(t) for t in x.grid.times],
        "max_degree": md,
        "stages": [{"basis": {str(k): x.labels[r][k] for k in range(md + 1)},
                    "d": {str(k): matrix_doc(x.d_mat(r, k)) for k in range(md)}}
                   for r in range(n)],
        "maps": [{str(k): matrix_doc(x.sigma_mat(r, k)) for k in range(md + 1)}
                 for r in range(n - 1)],
    }


def seeded_cell_maps(count=60, seed=10):
    """Inclusions X -> X + cells on a 3-point grid, as in criterion 10."""
    rng = random.Random(seed)
    g = Grid((0, 1, 2))
    out = []
    for _ in range(count):
        x = random_pcomplex(rng, g, 3, cells=2)
        y = x
        for j in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            s = rng.randint(0, 2)
            t = rng.choice([INF] + list(range(s + 1, 3)))
            data = random_sphere_data(rng, y, k, s, t, label=f"e{j}")
            y = attach_cell(y, data, label=f"e{j}")
        out.append((x, y))
    return out


def inclusion_doc(x, y):
    comps = [{str(k): [[str(1 if i == j else 0) for j in range(x.dim(r, k))]
                       for i in range(y.dim(r, k))] for k in range(x.max_degree + 1)}
             for r in range(len(x.grid))]
    return {"source": pcomplex_doc(x), "target": pcomplex_doc(y), "components": comps}


def compute_digests(tmp: Path) -> dict:
    out = {}
    for name in TOWERS:
        for cap in CAPS:
            build_dir = tmp / f"build-{name}-{cap}"
            out[f"build:{name}:{cap}"] = run_cli(build_argv(name, cap), build_dir)
            out[f"check:{name}:{cap}"] = run_cli(
                ["check", "--input", str(build_dir / "model.json")],
                tmp / f"check-{name}-{cap}")
    out["decompose:module_dims121"] = run_cli(
        ["decompose", "--input", str(FIXTURES / "module_dims121.json")],
        tmp / "decompose-module")

    maps = seeded_cell_maps()
    decompose, factor, modules = [], [], hashlib.sha256()
    for i, (x, y) in enumerate(maps):
        path = tmp / f"complex-{i}.json"
        path.write_text(json.dumps(pcomplex_doc(y)))
        decompose.append(run_cli(["decompose", "--input", str(path)],
                                 tmp / f"decompose-{i}"))
        path = tmp / f"map-{i}.json"
        path.write_text(json.dumps(inclusion_doc(x, y)))
        factor.append(run_cli(["factor", "--input", str(path)], tmp / f"factor-{i}"))
        for k in range(y.max_degree + 1):
            module = cohomology(y, k)
            bars, reps = interval_decompose(module)
            modules.update(repr((module.dims, [m.data for m in module.maps],
                                 bars, [sorted(rep.vectors.items()) for rep in reps]
                                 )).encode())
    out["decompose:pcomplex-batch"] = hashlib.sha256(" ".join(decompose).encode()).hexdigest()
    out["factor:batch"] = hashlib.sha256(" ".join(factor).encode()).hexdigest()
    out["cohomology:pcomplex-batch"] = modules.hexdigest()

    rng = random.Random(30)
    h = hashlib.sha256()
    for _ in range(30):
        mm = build_map_model(random_morphism(rng, 6, max_gens=2, max_degree=4), 4)
        for label, mor in (("g", mm.g), ("m", mm.m), ("n", mm.n)):
            dom = mor.domain
            h.update(repr((label, [(g.name, g.degree, repr(dom.generator_diff(g.name)),
                                    repr(mor.gen_images[g.name]))
                                   for g in dom.generators])).encode())
        h.update(repr(sorted((k, repr(v)) for k, v in mm.homotopy.assignment.items())).encode())
        for rep in mm.reports:
            h.update(repr((rep.degree, rep.psi, rep.q_matrix, rep.psi_adapted,
                           rep.new_domain_gens, rep.new_codomain_gens)).encode())
    out["map-models:batch"] = h.hexdigest()
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(digests, case):
    assert digests[case] == GOLDEN[case]


def subprocess_env(**extra) -> dict:
    """The environment, with the checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def demo_digest(name: str) -> str:
    """sha256 of the demo's stdout, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=subprocess_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_demo_output(name):
    assert demo_digest(name) == DEMO_GOLDEN[name]


def test_golden_under_other_hash_seed(tmp_path):
    """One build in a fresh interpreter with a different PYTHONHASHSEED."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = subprocess_env(PYTHONHASHSEED=seed)
    outdir = tmp_path / "out"
    code = ("import sys; from pmm.cli import main; "
            "raise SystemExit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, *build_argv("example3", 7), "--output", str(outdir)],
        env=env, capture_output=True, text=True, timeout=120)
    h = hashlib.sha256(f"rc={proc.returncode}\n{proc.stdout}".encode())
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == GOLDEN["build:example3:7"], proc.stderr


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for case, digest in sorted(compute_digests(Path(tmp)).items()):
            print(f"    {case!r}: {digest!r},")
    for name in sorted(DEMO_GOLDEN):
        print(f"    {name!r}: {demo_digest(name)!r},")
