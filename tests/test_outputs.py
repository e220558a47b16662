"""Every output file is written as a new file, never through an existing one.

A rerun into the same output directory unlinks each old file and creates it
anew. A hard link to a first run's output therefore keeps that run's bytes,
while the path reads exactly what a fresh directory gets from the rerun's
configuration.
"""

import json
import os

import pytest

from netprox.bench import run_experiment
from netprox.cli import main
from netprox.simnet import output_file


def files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def rerun_keeps_links(tmp_path, write):
    """write(out, k) writes the outputs of configuration k (0 or 1) into out."""
    out, fresh, links = tmp_path / "out", tmp_path / "fresh", tmp_path / "links"
    write(out, 0)
    first = files(out)
    assert first
    links.mkdir()
    side = {rel: links / str(rel).replace(os.sep, "__") for rel in first}
    for rel, link in side.items():
        os.link(out / rel, link)
    write(out, 1)
    write(fresh, 1)
    second = files(fresh)
    # the second configuration changes every file, so a write through the old inode would show
    assert all(second[rel] != first[rel] for rel in first)
    assert {rel: link.read_bytes() for rel, link in side.items()} == first
    assert files(out) == second


def test_run_experiment_rerun_leaves_linked_csvs_and_summary_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))

    def write(out, k):
        cfg = {
            "problem": {"case": 1, "N": 2, "n_g": 2},
            "topology": {"kind": "clique"},
            "algorithms": ["dpga", "pg_extra"],
            "seeds": [1, 2],
            "schedule": {"max_rounds": (40, 30)[k], "check_every": 10},
        }
        summary = run_experiment(cfg, out_dir=out, check=True)
        assert len(summary.csv_paths) == 4

    rerun_keeps_links(tmp_path, write)


def test_cli_bounds_rerun_leaves_linked_curves_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    path = tmp_path / "cfg.json"
    cfg = {
        "problem": {"case": 1, "N": 5, "n_g": 2},
        "topology": {"kind": "star"},
        "algorithms": ["dpga", "dpga_w"],
        "seeds": [0, 1],
        "schedule": {"max_rounds": 10},
    }
    path.write_text(json.dumps(cfg))

    def write(out, k):
        assert main(["bounds", str(path), "--out", str(out), "--rounds", ("500", "400")[k], "--points", "20"]) == 0

    rerun_keeps_links(tmp_path, write)


def test_cli_gen_rerun_leaves_linked_instance_files_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))

    def write(out, k):
        # one label, so both configurations write the same paths: another topology, group count and signal
        cfg = {
            "problem": {"case": 1, "N": 5, "n_g": (2, 3)[k]},
            "topology": {"kind": ("star", "circle")[k]},
            "algorithms": ["dpga"],
            "seeds": [0, 1],
            "schedule": {"max_rounds": 10},
            "label": "guard",
        }
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps(cfg))
        assert main(["gen", str(path), "--out", str(out)]) == 0

    rerun_keeps_links(tmp_path, write)


def test_output_file_replaces_a_symlink_and_keeps_the_newline_mode(tmp_path):
    target, path = tmp_path / "target.txt", tmp_path / "out.txt"
    target.write_bytes(b"old\n")
    path.symlink_to(target)
    with output_file(path, newline="") as fh:
        fh.write("a\r\nb\n")
    assert not path.is_symlink() and path.read_bytes() == b"a\r\nb\n"
    assert target.read_bytes() == b"old\n"
    with output_file(path) as fh:
        fh.write("c\n")
    assert path.read_bytes() == os.linesep.encode().join([b"c", b""])
    # a directory in the way fails as open fails on it
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError):
        output_file(tmp_path / "taken")
