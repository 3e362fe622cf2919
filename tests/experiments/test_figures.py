"""The paper's figures as experiment specs, pinned against the drivers they
replaced.

``PARENT_CELLS`` holds, for each of the seven figures at ``tiny`` size, every
cell as ``(label, num_ranks, words or n/p, num_bcasts, float.hex(time_ms),
messages)`` in run order, and ``PARENT_SCENARIO_IDS`` the scenario IDs of the
four shipped grid files.  Both were printed by this file run as a script on
the tree that still had one driver module per figure (commit e56e05a,
``repro/bench/fig*.py`` and ``hierarchical.py`` with their own measurement
loop) — so they are the contract ``figure_spec`` + ``run_spec`` have to
reproduce, not a snapshot of them:

    PYTHONPATH=src python tests/experiments/test_figures.py

The timings of Fig. 4/5/6/7/9 and of the machine sweep's broadcasts are the
old drivers' own.  A sort's seeds now follow the runner's one derivation from
``Scenario.seed`` (the drivers of Fig. 8 and the machine sweep hard-coded
another), so their jquick cells are pinned to ``execute_scenario`` of the
same ``Scenario`` on that tree instead.
"""

import pytest

from repro.experiments import (
    ExperimentSpec,
    Scenario,
    execute_scenario,
    shipped_spec_names,
)

GRID_FILES = ("smoke", "fig4_grid", "fig8_grid", "fig9_grid")

#: Fig. 7's RBC curve was the denominator of a ratio column, not a row.
FIG7_RBC = "RBC - Split RBC Comm + Ibcast"

#: The machine sweep: label -> (machine preset, placement) at p = 16.
SWEEP_MACHINES = {
    "flat": ("flat", None),
    "single-node": ("supermuc", dict(kind="single_node")),
    "multi-node": ("supermuc", dict(kind="regular", ranks_per_node=2,
                                    nodes_per_island=8)),
    "multi-island": ("supermuc", dict(kind="regular", ranks_per_node=2,
                                      nodes_per_island=2)),
}

PARENT_CELLS = {
    'fig4_iscan': [
        ('RBC::Iscan', 64, 1, None, '0x1.ebe1650a45d4ap-6', 705),
        ('RBC::Iscan', 64, 4, None, '0x1.ecf63800218e7p-6', 705),
        ('RBC::Iscan', 64, 16, None, '0x1.f14983d790748p-6', 705),
        ('RBC::Iscan', 64, 64, None, '0x1.014b599aa6091p-5', 705),
        ('RBC::Iscan', 64, 256, None, '0x1.23e5b8561d431p-5', 705),
        ('RBC::Iscan', 64, 1024, None, '0x1.ae4f3343fa2b0p-5', 705),
        ('Intel MPI Iscan', 64, 1, None, '0x1.0eb67c286f8afp-5', 705),
        ('Intel MPI Iscan', 64, 4, None, '0x1.0fd7e45803cd4p-5', 705),
        ('Intel MPI Iscan', 64, 16, None, '0x1.145d851654d61p-5', 705),
        ('Intel MPI Iscan', 64, 64, None, '0x1.2674080f98fa4p-5', 705),
        ('Intel MPI Iscan', 64, 256, None, '0x1.6ece13f4a98acp-5', 705),
        ('Intel MPI Iscan', 64, 1024, None, '0x1.481b21c475e65p-4', 705),
        ('IBM MPI Iscan', 64, 1, None, '0x1.055fbb517a45fp-5', 705),
        ('IBM MPI Iscan', 64, 4, None, '0x1.07faa044ae85bp-5', 705),
        ('IBM MPI Iscan', 64, 16, None, '0x1.126634117f845p-5', 705),
        ('IBM MPI Iscan', 64, 64, None, '0x1.3c148344c37e5p-5', 705),
        ('IBM MPI Iscan', 64, 256, None, '0x1.e2cdc011d3673p-5', 705),
        ('IBM MPI Iscan', 64, 1024, None, '0x1.1f6cacd184c29p-3', 705),
    ],
    'fig5_comm_split': [
        ('RBC - Comm create group', 32, None, None, '0x1.4f8b588e36873p-14', 160),
        ('RBC - Comm create group', 64, None, None, '0x1.4f8b588e36873p-14', 384),
        ('RBC - Comm create group', 128, None, None, '0x1.4f8b588e36873p-14', 896),
        ('Intel - MPI Comm create group', 32, None, None, '0x1.8ba40d90e23b0p-5', 220),
        ('Intel - MPI Comm create group', 64, None, None, '0x1.f45e0b4e11db8p-5', 508),
        ('Intel - MPI Comm create group', 128, None, None, '0x1.38a3b57c4e2f0p-4', 1148),
        ('Intel - MPI Comm split', 32, None, None, '0x1.07e175d13d74ap-3', 284),
        ('Intel - MPI Comm split', 64, None, None, '0x1.4c4cdfaca3617p-3', 636),
        ('Intel - MPI Comm split', 128, None, None, '0x1.ac2df0d41311fp-3', 1404),
        ('IBM - MPI Comm create group', 32, None, None, '0x1.7531db445ed4ap-1', 220),
        ('IBM - MPI Comm create group', 64, None, None, '0x1.06fbd273d5babp+0', 508),
        ('IBM - MPI Comm create group', 128, None, None, '0x1.9d1d4738a3b58p+0', 1148),
        ('IBM - MPI Comm split', 32, None, None, '0x1.9fc9ff92f2b65p-1', 284),
        ('IBM - MPI Comm split', 64, None, None, '0x1.21b97353b4b2fp+0', 636),
        ('IBM - MPI Comm split', 128, None, None, '0x1.c043a2163fdd6p+0', 1404),
    ],
    'fig6_overlapping': [
        ('RBC - Cascade', 16, None, None, '0x1.4f8b588e36873p-13', 64),
        ('RBC - Cascade', 64, None, None, '0x1.4f8b588e36873p-13', 384),
        ('RBC - Alternating', 16, None, None, '0x1.4f8b588e36873p-13', 64),
        ('RBC - Alternating', 64, None, None, '0x1.4f8b588e36873p-13', 384),
        ('Intel - Cascade MPI Comm create group', 16, None, None, '0x1.6bdb1a6d698fbp-4', 94),
        ('Intel - Cascade MPI Comm create group', 64, None, None, '0x1.5ca6ca03c4b0ep-2', 510),
        ('Intel - Alternating MPI Comm create group', 16, None, None, '0x1.a8ac5c13fd0cfp-5', 94),
        ('Intel - Alternating MPI Comm create group', 64, None, None, '0x1.a8ac5c13fd0cdp-5', 510),
    ],
    'fig7_range_bcast': [
        ('RBC - Split RBC Comm + Ibcast', 64, 1, 1, '0x1.9b13165d39973p-6', 415),
        ('RBC - Split RBC Comm + Ibcast', 64, 16, 1, '0x1.9d883ba3443cfp-6', 415),
        ('RBC - Split RBC Comm + Ibcast', 64, 256, 1, '0x1.c4da9003eea21p-6', 415),
        ('Intel - MPI Comm create group + Ibcast', 64, 1, 1, '0x1.6b11c6d1e108ap-4', 477),
        ('Intel - MPI Comm create group + Ibcast', 64, 16, 1, '0x1.6ec17ebaf101fp-4', 477),
        ('Intel - MPI Comm create group + Ibcast', 64, 256, 1, '0x1.a9bcfd4bf0994p-4', 477),
        ('IBM - MPI Comm split + Ibcast', 64, 1, 1, '0x1.2882cf52b90a5p+0', 667),
        ('IBM - MPI Comm split + Ibcast', 64, 16, 1, '0x1.288f42fe82516p+0', 667),
        ('IBM - MPI Comm split + Ibcast', 64, 256, 1, '0x1.2953dea465a58p+0', 667),
        ('RBC - Split RBC Comm + Ibcast', 64, 1, 10, '0x1.002f2f9874000p-2', 694),
        ('RBC - Split RBC Comm + Ibcast', 64, 16, 10, '0x1.01b866e43aa7cp-2', 694),
        ('RBC - Split RBC Comm + Ibcast', 64, 256, 10, '0x1.1a4bdba0a5269p-2', 694),
        ('Intel - MPI Comm create group + Ibcast', 64, 1, 10, '0x1.46540cc78e9f7p-2', 756),
        ('Intel - MPI Comm create group + Ibcast', 64, 16, 10, '0x1.4f8b588e368f5p-2', 756),
        ('Intel - MPI Comm create group + Ibcast', 64, 256, 10, '0x1.e30014f8b5890p-2', 756),
        ('IBM - MPI Comm split + Ibcast', 64, 1, 10, '0x1.62d3415b1421fp+0', 946),
        ('IBM - MPI Comm split + Ibcast', 64, 16, 10, '0x1.634fc610f0e85p+0', 946),
        ('IBM - MPI Comm split + Ibcast', 64, 256, 10, '0x1.6afdda8bd231fp+0', 946),
    ],
    'fig9_collectives': [
        ('9a', 64, 1, None, '0x1.049a9973d9ec7p-5', 447),
        ('9a', 64, 16, None, '0x1.0678c0053e2d3p-5', 447),
        ('9a', 64, 256, None, '0x1.23f67f4dbdf8dp-5', 447),
        ('9a', 64, 1, None, '0x1.ebb7739f340d9p-6', 447),
        ('9a', 64, 16, None, '0x1.eeaa6d267407bp-6', 447),
        ('9a', 64, 256, None, '0x1.0eed02cd39da2p-5', 447),
        ('9b', 64, 1, None, '0x1.0eed02cd39da2p-5', 447),
        ('9b', 64, 16, None, '0x1.17c5ef62f9ca4p-5', 447),
        ('9b', 64, 256, None, '0x1.a554b8bef8ceep-5', 447),
        ('9b', 64, 1, None, '0x1.ebb7739f340d9p-6', 447),
        ('9b', 64, 16, None, '0x1.eeaa6d267407bp-6', 447),
        ('9b', 64, 256, None, '0x1.0eed02cd39da2p-5', 447),
        ('9c', 64, 1, None, '0x1.04d983947496dp-5', 447),
        ('9c', 64, 16, None, '0x1.0a99b6f5caf2ap-5', 447),
        ('9c', 64, 256, None, '0x1.656eefa1e3eacp-5', 447),
        ('9c', 64, 1, None, '0x1.ec3547e069621p-6', 447),
        ('9c', 64, 16, None, '0x1.f687b139c94eep-6', 447),
        ('9c', 64, 256, None, '0x1.4dd72367e4150p-5', 447),
        ('9d', 64, 1, None, '0x1.1059ea57214f2p-5', 447),
        ('9d', 64, 16, None, '0x1.2e94680171193p-5', 447),
        ('9d', 64, 256, None, '0x1.891e215336defp-4', 447),
        ('9d', 64, 1, None, '0x1.ec3547e069621p-6', 447),
        ('9d', 64, 16, None, '0x1.f687b139c94eep-6', 447),
        ('9d', 64, 256, None, '0x1.4dd72367e4150p-5', 447),
        ('9e', 64, 1, None, '0x1.055fbb517a45fp-5', 705),
        ('9e', 64, 16, None, '0x1.126634117f845p-5', 705),
        ('9e', 64, 256, None, '0x1.e2cdc011d3673p-5', 705),
        ('9e', 64, 1, None, '0x1.ebe1650a45d4ap-6', 705),
        ('9e', 64, 16, None, '0x1.f14983d790748p-6', 705),
        ('9e', 64, 256, None, '0x1.23e5b8561d431p-5', 705),
        ('9f', 64, 1, None, '0x1.0eb67c286f8afp-5', 705),
        ('9f', 64, 16, None, '0x1.145d851654d61p-5', 705),
        ('9f', 64, 256, None, '0x1.6ece13f4a98acp-5', 705),
        ('9f', 64, 1, None, '0x1.ebe1650a45d4ap-6', 705),
        ('9f', 64, 16, None, '0x1.f14983d790748p-6', 705),
        ('9f', 64, 256, None, '0x1.23e5b8561d431p-5', 705),
        ('9g', 64, 1, None, '0x1.07314ca925fe7p-5', 447),
        ('9g', 64, 16, None, '0x1.1b4fe79ee02a4p-5', 447),
        ('9g', 64, 256, None, '0x1.2ead9274e22a2p-4', 447),
        ('9g', 64, 1, None, '0x1.efa615a8deb0ep-6', 447),
        ('9g', 64, 16, None, '0x1.074ea8da7f3cfp-5', 447),
        ('9g', 64, 256, None, '0x1.ff08893b7d848p-5', 447),
        ('9h', 64, 1, None, '0x1.11a11233df2aap-5', 447),
        ('9h', 64, 16, None, '0x1.2a66dbd72bcb4p-5', 447),
        ('9h', 64, 256, None, '0x1.5b61bb05faebcp-4', 447),
        ('9h', 64, 1, None, '0x1.efa615a8deb0ep-6', 447),
        ('9h', 64, 16, None, '0x1.074ea8da7f3cfp-5', 447),
        ('9h', 64, 256, None, '0x1.ff08893b7d848p-5', 447),
    ],
    'fig8_jquick': [
        ('RBC', 32, 1, None, '0x1.b953586ca8a03p-2', 909),
        ('RBC', 32, 4, None, '0x1.1a4ce8101f323p-1', 1272),
        ('RBC', 32, 16, None, '0x1.76f62263add6fp-1', 1520),
        ('RBC', 32, 4096, None, '0x1.f2ee88a4ebaf5p-1', 1572),
        ('Intel MPI', 32, 1, None, '0x1.39496249a1339p-1', 1093),
        ('Intel MPI', 32, 4, None, '0x1.d04295a6c5d1bp-1', 1506),
        ('Intel MPI', 32, 16, None, '0x1.275ac206f66c3p+0', 1798),
        ('Intel MPI', 32, 4096, None, '0x1.8d063202172bcp+0', 1864),
        ('IBM MPI', 32, 1, None, '0x1.647c5260f5e43p+1', 1093),
        ('IBM MPI', 32, 4, None, '0x1.f0bca5375c8e3p+2', 1506),
        ('IBM MPI', 32, 16, None, '0x1.2d626c7472792p+3', 1798),
        ('IBM MPI', 32, 4096, None, '0x1.29e35be708b7ap+3', 1864),
    ],
    'hierarchical_machines': [
        ('flat', 16, 16, None, '0x1.49c6f36ef8054p-6', 79),
        ('flat', 16, 4096, None, '0x1.b0468448cf7cdp-5', 79),
        ('flat', 16, 64, None, '0x1.0476f2a5a46a1p-1', 580),
        ('single-node', 16, 16, None, '0x1.3deda158aabc2p-9', 79),
        ('single-node', 16, 4096, None, '0x1.25643d973a43cp-7', 79),
        ('single-node', 16, 64, None, '0x1.03d7fbd4f814bp-4', 580),
        ('multi-node', 16, 16, None, '0x1.0144a39dff59ep-6', 79),
        ('multi-node', 16, 4096, None, '0x1.568b27100f41cp-5', 79),
        ('multi-node', 16, 64, None, '0x1.848c210b12839p-2', 541),
        ('multi-island', 16, 16, None, '0x1.856381af98089p-6', 79),
        ('multi-island', 16, 4096, None, '0x1.0f260db0c2ab0p-4', 79),
        ('multi-island', 16, 64, None, '0x1.0d00a6eeecb29p-1', 541),
    ],
}

PARENT_SCENARIO_IDS = {
    'smoke': """
        7e7ff95e89c4 43b0ff2ba5d9 8550ab456952 f91fd33ac1cc
    """,
    'fig4_grid': """
        1c22fc59da62 cdc82361ff50 9d900e8f2e0a 9f1b3b501db3 b91a834f903f
        5170059c7cd7 39a0bb086430 97480a051a61 995bd908c2f3 a1ab036d4df0
        53c30568c9aa 97e30a52b14b 53795437365e a7b6028ce7b5 78bc6b54096a
        5fa5f4f17914 81e3e0342e6d ac390d365fc9 32ccea539dc7 ab57cb3c068e
        46a0227265fc c48eb60649d5 11cf01b4a104 cbf0755ce85c 08ab2aa46aa2
        1b4b77a143ce 80131d114629 8b822effb030 4f0c6703ef63 6cc0dbd6c29d
        c0f30f8c6426 cec7b1639158 67c04e3d5ad8 b93035e06f0d 699261072895
        32d777caf521 b47be7584238 aadac27f199b b1fb67611961 020dc615faf5
        d9e1a1316e45 a36c5394d91e 1dfed24a1667 1d970601457f f231ea3c2bea
        e2b9f9043b27 6d542e80d994 d6663f645ebd 68388bb70b8e be44933865c6
        202bbb40e973 fa7501eb8e2d 669c8ef60dfb b654ed0ff3b7 8b8d8030faf3
        09f1d7c43efc 6ae1bcdfe1ea 18df37ab19bc c70f72ab02c4 668467e6b10b
        e648ce691b8c da9fd4ca1787 b400b08ad7c7 5c841bbce51a 37388ac35173
        07fcb284e7c6 4e889a72434d 24e5b6e1eb97 c78c7fd55bd2 7229a80c382c
        78f97c72237a 8215ebab6d08 920a6f80082d 12a50df1b403 5d60cb4b014b
        59500e4f05c7 bfad6fbade1a 982dd9de5543 25e10d36898f ca9dc4e8ed10
        58432c1e82be 2960de733349 c67903f0f540 66101651c5d9 1033b67e2669
        373ad776f63c c94602262473 6560ce9f8fc8 37a8d587d9d7 22dd9f190b0d
    """,
    'fig8_grid': """
        352c407549b6 6a868e674291 5446fb7c4311 f8bf495f79dd 2d8e47febad1
        362ca40dcc32 75f778a36176 794d077c93fa a0c6fe168ea7 401a18587d89
        f33ef6e67aa9 43a278042c85 336532e54499 6750bccb4caf 80a9657fc7c7
        38a8cd44e845 322beec21955 d700dcf36851
    """,
    'fig9_grid': """
        72b452c457c1 03fe241119ce 18a4dc4a1ec7 93717b5be333 8302d44a5e78
        e6d957f28bea 5e73f52ab34c fdb0da6c5a9c f5f84f935196 baaa607b619a
        bfbf0e01ec73 5ec90603a476 02efe704e983 b83c8abb8d24 5d500059b8a3
        953e92dd8f4f 9f93b80d276f 522cb2116359 bc6ec4c5f1c4 a45896283664
        a198e084ea49 32e6795dad19 440ea276cdeb 313635e0e5d3 391bd8f2c725
        c6fc0d75bbde 23bc4b014b96 c371fef03c33 84e7df1d51ee d8f8b9cc39ad
        c485d8e6decd 52c76971beae 81be2c496197 b3c151436f48 034b6a922f13
        ede94ae01680 42d03d71e1e1 c89e3e66d284 f05390516826 1cc4359d7e04
        1fbc05447f36 003281e36068 706f21a41c57 12120dd2f4d1 026de368d131
        ee64dd7a73b2 4f8d5a5c9b11 fe54b64cfcab e5ea126ea6b6 d8e68636a6bc
        58fa16cba839 8a935dc8a89b b4700965217c 94a546227592 bea19ff2a2a8
        3bd83ce32d1a f9182c3e0df1 473bcc497357 0fb8cbeb5fea e8337f8faa4e
        3e02b3857b8f 532fd542c90b c312c25afc77 e03cb9032e8a 3b5e4ba2b89b
        e0e75656ed9d 89fe42729df2 bd42ff115cc9 f773af5bd2b7 ab42b07010d3
        db3bca289fcc f9f586c8c444 b8f0e8c336e2 40b37165f824 4a0b88bea67c
        9decd288cf04 a6f3b9640561 c8a2772b641f acfc75d58ca3 384d75c20e64
        2a9ca5ec16c6 eda57c3704af b2d55ade2460 20dfb2bb353e 7f0f809ccd4b
        a2f254174d87 9fc4d00c5e9b 253668e9be1e d3330a47c74c 35750fe267e2
    """,
}


@pytest.mark.parametrize("name", sorted(PARENT_CELLS))
def test_tiny_figure_reproduces_the_old_drivers_cells(name, figure_table):
    cells = [(row["label"], row["num_ranks"], row["n_per_proc"],
              row["num_bcasts"], row["time_ms"].hex(), row["messages"])
             for row in figure_table(name).rows]
    assert cells == PARENT_CELLS[name]


@pytest.mark.parametrize("name", GRID_FILES)
def test_shipped_grid_scenario_ids_are_unchanged(name):
    ids = [s.scenario_id for s in ExperimentSpec.load(name).scenarios()]
    assert ids == PARENT_SCENARIO_IDS[name].split()


def test_every_figure_is_a_shipped_spec_name_at_every_scale():
    from repro.experiments.figures import SCALES, figure_spec

    names = [name for name in shipped_spec_names() if name not in GRID_FILES]
    assert names == sorted(f"{figure}_{scale}" for figure in PARENT_CELLS
                           for scale in SCALES)
    for name in names:
        spec = ExperimentSpec.load(name)
        assert spec.name == name and spec.description
        assert [s.scenario_id for s in spec.scenarios()] == [
            s.scenario_id
            for s in figure_spec(*name.rsplit("_", 1)).scenarios()]
    with pytest.raises(KeyError, match="unknown scale"):
        figure_spec("fig5_comm_split", "huge")
    with pytest.raises(KeyError, match="unknown figure"):
        figure_spec("fig3", "tiny")


# ---------------------------------------------------------------------------
# The generator.  It imports the driver modules this file's tests replaced,
# so it only runs on the tree that still has them.
# ---------------------------------------------------------------------------

def _jquick_cell(label, seed, num_ranks, n_per_proc, **fields):
    result = execute_scenario(Scenario.from_dict(dict(
        kind="jquick", seed=seed, num_ranks=num_ranks, n_per_proc=n_per_proc,
        label=label, **fields)))
    assert result.ok, result.error
    return (label, num_ranks, n_per_proc, None, result.time_ms.hex(),
            result.messages)


def _generate():
    from repro.bench import (
        fig4_iscan,
        fig5_comm_split,
        fig6_overlapping,
        fig7_range_bcast,
        fig8_jquick,
        fig9_collectives,
        hierarchical,
    )
    from repro.bench.harness import Measurement

    # Every cell of every driver is one Measurement.from_samples call, in
    # run order; the tables drop the message counts, so record them here.
    measured = []
    from_samples = Measurement.from_samples

    def recording(samples_us, messages=0):
        measured.append(from_samples(samples_us, messages=messages))
        return measured[-1]

    def driver_cells(driver, coordinates):
        del measured[:]
        driver.run("tiny")
        assert len(measured) == len(coordinates)
        return [(*cell, m.mean_ms.hex(), m.messages)
                for cell, m in zip(coordinates, measured)]

    def powers(exponents):
        return [2 ** exponent for exponent in exponents]

    cells = {}
    Measurement.from_samples = staticmethod(recording)
    try:
        size = fig4_iscan.PRESETS["tiny"]
        cells["fig4_iscan"] = driver_cells(fig4_iscan, [
            (label, size["num_ranks"], words, None)
            for label, _, _ in fig4_iscan._IMPLS
            for words in powers(size["exponents"])])
        for driver in (fig5_comm_split, fig6_overlapping):
            cells[driver.__name__.rsplit(".", 1)[1]] = driver_cells(driver, [
                (curve[0], p, None, None) for curve in driver.CURVES
                for p in driver.PRESETS["tiny"]["proc_counts"]])
        size = fig7_range_bcast.PRESETS["tiny"]
        cells["fig7_range_bcast"] = driver_cells(fig7_range_bcast, [
            (label, size["num_ranks"], words, num_bcasts)
            for num_bcasts in size["bcast_counts"]
            for label in (FIG7_RBC, *(c[0] for c in fig7_range_bcast.CURVES))
            for words in powers(size["exponents"])])
        size = fig9_collectives.PRESETS["tiny"]
        cells["fig9_collectives"] = driver_cells(fig9_collectives, [
            (panel, size["num_ranks"], words, None)
            for panel, operation, _ in fig9_collectives.PANELS
            for _impl in ("mpi", "rbc")
            for words in powers(size["gather_exponents"]
                                if operation == "gather"
                                else size["exponents"])])
        size = hierarchical.PRESETS["tiny"]
        p = size["num_ranks"]
        sweep = iter(driver_cells(hierarchical, [
            (machine, p, words, None) for machine in hierarchical.MACHINES
            for words in (*size["collective_words"], None)]))
    finally:
        Measurement.from_samples = staticmethod(from_samples)

    size = fig8_jquick.PRESETS["tiny"]
    cells["fig8_jquick"] = [
        _jquick_cell(label, 1000, size["num_ranks"], n_per_proc,
                     impl=backend, vendor=vendor)
        for label, backend, vendor in fig8_jquick.CURVES
        for n_per_proc in powers(size["exponents"])]
    # The sweep's broadcasts are the driver's; its sorts ran on other seeds.
    size = hierarchical.PRESETS["tiny"]
    cells["hierarchical_machines"] = [
        cell if cell[2] is not None else _jquick_cell(
            cell[0], 4000, p, size["jquick_n_per_proc"], impl="rbc",
            vendor="generic", machine=SWEEP_MACHINES[cell[0]][0],
            placement=SWEEP_MACHINES[cell[0]][1])
        for cell in sweep]

    print("PARENT_CELLS = {")
    for name, figure in cells.items():
        print(f"    {name!r}: [")
        for cell in figure:
            print(f"        {cell!r},")
        print("    ],")
    print("}\n\nPARENT_SCENARIO_IDS = {")
    for name in GRID_FILES:
        ids = [s.scenario_id for s in ExperimentSpec.load(name).scenarios()]
        print(f'    {name!r}: """')
        for start in range(0, len(ids), 5):
            print("        " + " ".join(ids[start:start + 5]))
        print('    """,')
    print("}")


if __name__ == "__main__":
    _generate()
