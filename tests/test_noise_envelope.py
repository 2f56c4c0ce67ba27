"""The known failure envelope of pressure noise, pinned seed by seed.

`cs1_occluded` at 320x240 with `pressure_noise_sigma` = 0.01 (one fifth of
`eps_contact`) completes on 56 of seeds 0-59. Noise moves the pressure
centroid of each accepted contact, and on seeds 23, 41 and 57 the fused
cloud re-sorts into two segments (partial). Noise also makes a flat
contact read as cable (its indicator is far above `t_h`), so a walk that
misses the endpoint it heads for never dead-ends: on seed 34 one walks on
across the plane until the default probe budget runs out. The table is
the one in README.md; a change that moves any seed must say why.
"""

from cablerecon import cli, pipeline, scenarios
from conftest import qvga_template

SIGMA = 0.01
SEEDS = range(60)
PARTIAL = {23, 41, 57}
BUDGET = {34}


def test_cs1_occluded_qvga_noise_envelope(tmp_path, capsys):
    codes = {}
    for seed in SEEDS:
        doc = qvga_template("cs1_occluded", seed)
        doc["pressure_noise_sigma"] = SIGMA
        path = tmp_path / f"seed{seed}.yaml"
        scenarios.save_scenario(path, doc)
        codes[seed] = cli.main(["run", str(path), "--out", str(tmp_path / f"run{seed}")])
    capsys.readouterr()

    expected = {
        seed: pipeline.EXIT_PARTIAL if seed in PARTIAL
        else pipeline.EXIT_BUDGET if seed in BUDGET
        else pipeline.EXIT_COMPLETE
        for seed in SEEDS
    }
    assert codes == expected
