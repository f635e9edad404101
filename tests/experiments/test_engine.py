"""Sweep engine: planning, artifact reuse, resume, grids.

All tests run on the tiny corpus with per-test isolated caches.
"""

import pytest

from repro.api import Client
from repro.core import AttackConfig
from repro.core.attack import DLAttack
from repro.experiments import (
    DefenseSpec,
    ResultsStore,
    ScenarioSpec,
    build_grid,
    plan_sweep,
    run_sweep,
)
from repro.pipeline import clear_memo

TINY = AttackConfig.tiny().with_(epochs=2)
TRAIN = ("tiny_a", "tiny_b")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_memo()
    yield
    clear_memo()


def dl_spec(design, **kw):
    kw.setdefault("config", TINY)
    kw.setdefault("train_names", TRAIN)
    return ScenarioSpec(design=design, split_layer=3, attack="dl", **kw)


class TestPlanning:
    def test_shared_training_config_plans_one_train_node(self):
        plan = plan_sweep([dl_spec("tiny_a"), dl_spec("tiny_b")])
        counts = plan.counts()
        assert counts["train"] == 1
        assert counts["eval"] == 2
        assert counts["layout"] == 2  # tiny_a + tiny_b (corpus == evals)

    def test_distinct_configs_plan_distinct_train_nodes(self):
        plan = plan_sweep([
            dl_spec("tiny_a"),
            dl_spec("tiny_a", config=TINY.with_(epochs=1)),
        ])
        assert plan.counts()["train"] == 2

    def test_baseline_attacks_need_no_train_node(self):
        plan = plan_sweep([
            ScenarioSpec(design="tiny_a", split_layer=3, attack="proximity"),
        ])
        assert "train" not in plan.counts()

    def test_levels_respect_dependencies(self):
        plan = plan_sweep([dl_spec("tiny_a")])
        kinds = [sorted({n.kind for n in level}) for level in plan.levels()]
        assert kinds == [["layout"], ["features"], ["train"], ["eval"]]

    def test_feature_warmup_is_shared_across_evals(self):
        # Two DL scenarios on the same layout whose configs differ only
        # in training hyper-parameters: one warm-up node serves both.
        plan = plan_sweep([
            dl_spec("tiny_a"),
            dl_spec("tiny_a", config=TINY.with_(epochs=1)),
        ])
        features = [
            n for n in plan.nodes.values() if n.kind == "features"
        ]
        assert len(features) == len(TRAIN)  # corpus warm-ups only,
        # because tiny_a is in the corpus and dedups with the eval's

    def test_cache_free_inference_skips_target_warmup(self):
        plan = plan_sweep([
            dl_spec("tiny_seq", cache_free_inference=True),
        ])
        targets = [
            n for n in plan.nodes.values()
            if n.kind == "features" and n.payload[0] == "tiny_seq"
        ]
        assert targets == []  # figure5 timing mode re-extracts anyway

    def test_warm_feature_cache_prunes_warmup_node(self, tmp_path):
        specs = [dl_spec("tiny_seq")]
        run_sweep(specs)  # warms layouts + features + weights
        clear_memo()
        plan = plan_sweep(specs)
        assert "features" not in plan.counts()
        assert plan.pruned.get("features", 0) >= 1
        assert plan.pruned.get("layout", 0) >= 1

    def test_defended_layouts_are_shared_nodes(self):
        defense = DefenseSpec("perturb", 4.0)
        plan = plan_sweep([
            ScenarioSpec(design="tiny_a", attack="proximity", defense=defense),
            ScenarioSpec(design="tiny_a", attack="flow", defense=defense),
        ])
        assert plan.counts()["layout"] == 1

    def test_store_hits_prune_everything(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        specs = [ScenarioSpec(design="tiny_a", attack="proximity")]
        run_sweep(specs, store=store)
        plan = plan_sweep(specs, store=store)
        assert not plan.nodes
        assert len(plan.reused) == 1


class TestExecution:
    def test_records_in_spec_order_and_resume(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        specs = [
            ScenarioSpec(design="tiny_b", split_layer=3, attack="proximity"),
            ScenarioSpec(design="tiny_a", split_layer=3, attack="proximity"),
        ]
        first = run_sweep(specs, store=store)
        assert first.executed == 2 and first.reused == 0
        assert [r.scenario["design"] for r in first.records] == [
            "tiny_b", "tiny_a",
        ]
        again = run_sweep(specs, store=store)
        assert again.executed == 0 and again.reused == 2
        assert [r.ccr for r in again.records] == [r.ccr for r in first.records]

    def test_fresh_run_ignores_store(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        specs = [ScenarioSpec(design="tiny_a", attack="proximity")]
        run_sweep(specs, store=store)
        fresh = run_sweep(specs, store=store, resume=False)
        assert fresh.executed == 1
        assert len(store.history()) == 2

    def test_cross_scenario_artifact_reuse_no_retrain(self, tmp_path,
                                                      monkeypatch):
        store = ResultsStore(tmp_path / "exp.jsonl")
        first = run_sweep([dl_spec("tiny_a")], store=store)
        assert first.executed == 1

        def boom(*args, **kwargs):
            raise AssertionError(
                "second scenario with the same training config retrained"
            )

        monkeypatch.setattr(DLAttack, "train", boom)
        clear_memo()  # drop layout memos; weights must come from disk
        second = run_sweep([dl_spec("tiny_b")], store=store)
        assert second.executed == 1
        assert second.records[0].status == "ok"

    def test_no_disk_cache_shares_training_in_process(self, monkeypatch):
        # With the disk cache disabled the plan has no train nodes and
        # each dl eval calls trained_attack in-process; the attack memo
        # must keep that at one training per (layer, config), exactly
        # like the legacy direct harness did.
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        clear_memo()
        calls = []
        real_train = DLAttack.train

        def counting_train(self, *args, **kwargs):
            calls.append(1)
            return real_train(self, *args, **kwargs)

        monkeypatch.setattr(DLAttack, "train", counting_train)
        result = run_sweep([dl_spec("tiny_a"), dl_spec("tiny_b")])
        assert [r.status for r in result.records] == ["ok", "ok"]
        assert len(calls) == 1
        clear_memo()

    def test_failed_late_node_keeps_earlier_levels(self, tmp_path,
                                                   monkeypatch):
        store = ResultsStore(tmp_path / "exp.jsonl")
        prox = ScenarioSpec(design="tiny_a", split_layer=3, attack="proximity")

        def boom(self, split):
            raise RuntimeError("dl eval failed")

        monkeypatch.setattr(DLAttack, "attack", boom)
        with pytest.raises(RuntimeError):
            run_sweep([prox, dl_spec("tiny_a")], store=store)
        # The proximity eval's level finished and persisted before the
        # DL eval failed — the re-run resumes it from the store.
        assert store.get(prox) is not None

    def test_flow_timeout_recorded(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        spec = ScenarioSpec(
            design="tiny_seq", split_layer=3, attack="flow",
            flow_timeout_s=1e-4,
        )
        result = run_sweep([spec], store=store)
        record = result.records[0]
        assert record.status == "timeout"
        assert record.ccr is None
        assert store.get(spec).status == "timeout"


class TestTable3Resume:
    """A store-backed Table 3 run through ``Client`` resumes in full."""

    def test_table3_grid_resumes_from_store(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        kwargs = dict(
            designs=["tiny_seq"], split_layers=(3,), config=TINY,
            train_names=TRAIN, flow_timeout_s=30.0,
        )
        with Client(backend="local", store=store) as client:
            first = client.table3(**kwargs)
            again = client.table3(**kwargs)
        assert first.executed == 2 and first.reused == 0
        assert again.executed == 0 and again.reused == 2
        row, resumed = first.report().rows[0], again.report().rows[0]
        assert (row.design, row.split_layer) == ("tiny_seq", 3)
        assert resumed.ccr_dl == row.ccr_dl
        assert resumed.ccr_flow == row.ccr_flow
        assert "tiny_seq" in again.report().render()
        assert len(store.history()) == 2  # flow + dl, appended once


class TestGrids:
    def test_table3_grid_covers_suite(self):
        specs = build_grid("table3")
        assert len(specs) == 16 * 2 * 2  # designs x layers x {flow, dl}
        assert len({s.scenario_hash for s in specs}) == len(specs)

    def test_json_param_config_dict_is_coerced(self):
        # the CLI --param syntax hands configs through as plain dicts
        specs = build_grid(
            "table3", designs=("c432",), split_layers=(3,),
            config={"epochs": 2},
        )
        dl = [s for s in specs if s.attack == "dl"][0]
        assert isinstance(dl.config, AttackConfig)
        assert dl.config.epochs == 2
        dl.to_dict()  # must serialise cleanly
        f5 = build_grid(
            "figure5", designs=("c432",), config={"epochs": 2},
        )
        assert all(isinstance(s.config, AttackConfig) for s in f5)

    def test_unknown_grid_and_params_error(self):
        with pytest.raises(KeyError):
            build_grid("nope")
        with pytest.raises(TypeError):
            build_grid("table3", bogus_param=1)

    def test_candidate_lists_grid_runs_rf(self, tmp_path):
        specs = build_grid(
            "candidate-lists",
            designs=("tiny_seq",), thresholds=(0.2, 0.5),
            config=TINY, train_names=TRAIN,
        )
        assert [s.attack for s in specs] == ["dl", "rf", "rf"]
        assert len({s.scenario_hash for s in specs}) == 3
        # The rf evaluations are cheap enough for the fast tier; the
        # DL sibling is covered by the other grids.
        rf_specs = [s for s in specs if s.attack == "rf"]
        store = ResultsStore(tmp_path / "exp.jsonl")
        result = run_sweep(rf_specs, store=store)
        for record in result.records:
            assert record.status == "ok"
            assert record.train_seconds > 0  # forest trained in-eval
            rf = record.extra["rf"]
            assert rf["mean_list_size"] >= 1.0
            assert 0.0 <= rf["list_recall"] <= 100.0
        # A looser threshold can only grow the candidate lists.
        loose, tight = result.records[0], result.records[1]
        assert (
            loose.extra["rf"]["mean_list_size"]
            >= tight.extra["rf"]["mean_list_size"]
        )

    def test_cross_defense_grid_shares_training(self):
        specs = build_grid(
            "cross-defense",
            designs=("tiny_a",), split_layers=(3,),
            config=TINY, train_names=TRAIN,
        )
        plan = plan_sweep(specs)
        # one trained model serves every defense variant at this layer
        assert plan.counts()["train"] == 1
        assert plan.counts()["eval"] == len(specs)
