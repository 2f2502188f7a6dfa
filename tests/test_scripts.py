"""The scripts and the library snippet the README documents run end to end
at a small size."""

import os
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


def run_script(name, *args):
    return run_python(os.path.join(ROOT, "scripts", name), *args)


def test_run_protocols(tmp_path):
    out = tmp_path / "tables.txt"
    done = run_script("run_protocols.py", "--recipes", "delta-only", "--out", str(out))
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "=== delta-only (seed 0) ==="
    table = lines[1:lines.index("") - 1]  # up to the timing line
    assert [line.split(":")[0] for line in table] == [
        "source accuracy", "delta-only accuracy", "chance level", "ratio over chance"]


def test_run_protocols_summarizes_the_seeds():
    done = run_script("run_protocols.py", "--recipes", "ood", "--seeds", "0", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line for line in lines if line.startswith("===")] == [
        "=== ood (seed 0) ===", "=== ood (seed 1) ===", "=== summary over seeds 0 1 ==="]
    # at these seeds the table's four decimals hold each accuracy exactly
    means = {arm: [float(line.split("mean=")[1]) for line in lines
                   if line.startswith(f"method={arm} ")] for arm in ("none", "sign")}
    diffs = [s - n for n, s in zip(means["none"], means["sign"])]
    assert lines[-1].split() == [
        "ood",
        *[cell for arm in ("none", "sign") for cell in (
            arm, f"{statistics.fmean(means[arm]):.4f}+-{statistics.pstdev(means[arm]):.4f}")],
        "sign-none", f"{statistics.fmean(diffs):+.4f}", "(>", "0", "at",
        f"{sum(d > 0 for d in diffs)}/2", "seeds)"]


def test_sweep_transform_strength():
    done = run_script("sweep_transform_strength.py", "--seeds", "0", "--gammas", "0.02")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["gamma", "clean(base)", "clean(sign)", "pixoff(base)",
                              "pixoff(sign)"]
    assert len(rows) == 1 and rows[0].split()[0] == "0.02"


@pytest.mark.parametrize("name, flag", [("run_protocols.py", "--seeds"),
                                        ("sweep_transform_strength.py", "--seeds")])
def test_seed_out_of_range_is_a_usage_error(name, flag):
    done = run_script(name, flag, "-1")
    assert done.returncode != 0
    assert f"argument {flag}: seed must be a 64-bit unsigned integer, got -1" in done.stderr
    assert "Traceback" not in done.stderr


def test_readme_library_snippet():
    with open(os.path.join(ROOT, "README.md")) as fh:
        (snippet,) = [block.split("```", 1)[0] for block in fh.read().split("```python\n")[1:]]
    done = run_python("-c", snippet)
    assert done.returncode == 0, done.stderr
    assert 1 / 3 < float(done.stdout) <= 1.0  # the final model's test accuracy
