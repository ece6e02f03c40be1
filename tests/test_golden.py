"""Golden digests: seeded compare-reps outputs must stay byte-identical.

A change that alters a metric on purpose updates these digests and says so;
any other change must reproduce them exactly.
"""

import hashlib

from scenefactor.cli import main
from scenefactor.generator import GeneratorConfig, generate_scene
from scenefactor.io_formats import write_scene

COMPARE_REPS_SHA256 = {
    "values.csv": "ea5e4d078347fadca8597b0deac180548c62e204e3184ed3f6af284ccb9924af",
    "curves.csv": "4b04eaf97b9cb85a2722a257d9ef5f8a624fb3d9e99153339f2797314c92855c",
}


def test_compare_reps_digests(tmp_path):
    # Two objects per scene: six registrations each, more than the CPUs.
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for seed in (3, 4):
        config = GeneratorConfig(seed=seed, object_count_range=(2, 2), anchor_classes=(),
                                 class_mix={"chair": 1.0, "desk": 1.0, "table": 1.0})
        write_scene(generate_scene(config), scenes / f"s{seed}.json")
    out = tmp_path / "out"
    assert main(["compare-reps", "--scenes", str(scenes), "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in COMPARE_REPS_SHA256}
    assert digests == COMPARE_REPS_SHA256
