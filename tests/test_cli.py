import hashlib
import json
import os
import re

import pytest

from canids.cli import main
from canids.synth import AmbientModel, AttackScenario

AMBIENT = {
    "duration": 4.0,
    "seed": 11,
    "ids": [
        {"id": "0D0", "period": 0.01, "jitter_std": 0.0004,
         "payload": {"kind": "constant", "base": "0011223344556677"}},
        {"id": "1A0", "period": 0.005,
         "payload": {"kind": "counter", "base": "0000000000000000", "positions": [7]}},
        {"id": "2B0", "period": 0.02, "jitter_std": 0.001,
         "payload": {"kind": "random_walk", "base": "8080808080808080", "step": 2}},
    ],
}

DOS_SCENARIO = {"kind": "dos", "interval": [1.0, 2.0]}


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json("ambient.json", AMBIENT)
    write_json("scenario.json", DOS_SCENARIO)
    return tmp_path


def run(argv):
    return main(argv)


class TestSynthVerb:
    def test_synth_writes_artifacts(self, workspace, capsys):
        assert run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
                    "--out", "synth"]) == 0
        for name in ("ambient.log", "attack.log", "attack.labels.json", "sidecar.json"):
            assert os.path.isfile(os.path.join("synth", name))
        out = capsys.readouterr().out
        assert "sidecar verified" in out

    def test_refuses_overwrite_without_force(self, workspace, capsys):
        args = ["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
                "--out", "synth"]
        assert run(args) == 0
        assert run(args) == 2
        assert "--force" in capsys.readouterr().err
        assert run(args + ["--force"]) == 0

    def test_missing_scenario_exits_2_with_path(self, workspace, capsys):
        code = run(["synth", "--ambient", "ambient.json", "--scenario", "nowhere.json",
                    "--out", "synth"])
        assert code == 2
        assert "nowhere.json" in capsys.readouterr().err


class TestIngestAndLabel:
    def test_ingest_candump_roundtrip(self, workspace):
        run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
             "--out", "synth"])
        assert run(["ingest", "--input", "synth/ambient.log", "--out", "copy.log"]) == 0
        with open("synth/ambient.log") as a, open("copy.log") as b:
            assert a.read() == b.read()

    def test_ingest_csv_with_labels(self, workspace):
        rows = [
            "1.000000,0316,8,00,11,22,33,44,55,66,77,R",
            "1.000500,0316,8,FF,FF,FF,FF,FF,FF,FF,FF,T",
            "1.001000,02A0,8,00,00,00,00,00,00,00,01,R",
        ]
        with open("capture.csv", "w") as fh:
            fh.write("\n".join(rows) + "\n")
        assert run(["ingest", "--input", "capture.csv", "--format", "hcrl-csv",
                    "--attack-class", "Fuzzing Attack", "--out", "capture.log"]) == 0
        assert os.path.isfile("capture.log.labels.json")
        doc = read_json("capture.log.labels.json")
        assert doc["classes"] == ["Normal", "Fuzzing Attack"]
        assert doc["labels"] == [0, 1, 0]

    @pytest.mark.parametrize("scenario", [
        DOS_SCENARIO,
        {"kind": "fuzzy", "interval": [1.5, 1.7], "seed": 4, "extended_ids": True},
    ], ids=["dos", "fuzzy-extended"])
    def test_label_matches_synth_labels(self, workspace, scenario):
        """`canids label` reproduces the synth labels from the sidecar, whose
        extended ids are written as 8 hex digits."""
        write_json("scenario.json", scenario)
        run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
             "--out", "synth"])
        assert run(["label", "--log", "synth/attack.log",
                    "--metadata", "synth/sidecar.json", "--out", "relabel.json"]) == 0
        original = read_json("synth/attack.labels.json")
        relabeled = read_json("relabel.json")
        assert original["labels"] == relabeled["labels"]
        assert original["classes"] == relabeled["classes"]


class TestPrepTrainEval:
    @pytest.fixture
    def synth_dir(self, workspace):
        run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
             "--out", "synth"])
        return "synth"

    def test_full_chain(self, synth_dir, capsys):
        assert run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
                    "--out", "prep", "--seed", "3"]) == 0
        assert run(["train", "--train", "prep/train.csv", "--classes", "prep/classes.json",
                    "--model", "forest", "--params", '{"n_trees": 5, "max_depth": 6}',
                    "--out", "model.json", "--seed", "3"]) == 0
        assert run(["eval", "--model", "model.json", "--test", "prep/test.csv",
                    "--out", "report.json"]) == 0
        report = read_json("report.json")
        attack_row = next(r for r in report["per_class"] if r["class"] != "Normal")
        assert attack_row["f1"] >= 0.99
        assert report["accuracy"] >= 0.99

    def test_prep_with_windows_and_smote(self, synth_dir):
        assert run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
                    "--out", "prep", "--smote-target", "3000", "--grid-window", "29",
                    "--grid-step", "1", "--sequence-window", "16"]) == 0
        for name in ("train.csv", "test.csv", "classes.json", "grids.bin",
                     "grid_labels.bin", "sequences.csv"):
            assert os.path.isfile(os.path.join("prep", name))

    def test_train_bad_params_json(self, synth_dir, capsys):
        run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
             "--out", "prep"])
        code = run(["train", "--train", "prep/train.csv", "--model", "tree",
                    "--params", "{broken", "--out", "m.json"])
        assert code == 2
        assert "params" in capsys.readouterr().err

    def test_train_unknown_param_rejected(self, synth_dir, capsys):
        run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
             "--out", "prep"])
        code = run(["train", "--train", "prep/train.csv", "--model", "tree",
                    "--params", '{"wat": 1}', "--out", "m.json"])
        assert code == 2

    def test_eval_unknown_test_label_is_runtime_error(self, synth_dir, capsys):
        run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
             "--out", "prep"])
        run(["train", "--train", "prep/train.csv", "--model", "tree",
             "--params", '{"max_depth": 3}', "--out", "model.json"])
        with open("bad.csv", "w") as fh:
            fh.write("id,label,provenance\n1.0,Martian Attack,original\n")
        code = run(["eval", "--model", "model.json", "--test", "bad.csv", "--out", "r.json"])
        assert code == 1
        assert "Martian" in capsys.readouterr().err

    def test_frequency_train_and_eval(self, synth_dir):
        assert run(["train", "--model", "frequency", "--ambient", "synth/ambient.log",
                    "--out", "freq.json"]) == 0
        assert run(["eval", "--model", "freq.json", "--log", "synth/attack.log",
                    "--labels", "synth/attack.labels.json", "--out", "freq_report.json"]) == 0
        report = read_json("freq_report.json")
        attack = next(r for r in report["per_class"] if r["class"] == "Attack")
        # Every injected frame uses an id the ambient model never emits.
        assert attack["recall"] >= 0.99


PIPELINE_CONFIG = {
    "seed": 5,
    "ambient": AMBIENT,
    "scenario": DOS_SCENARIO,
    "split": {"ratio": 0.8, "mode": "stratified_random"},
    "model": {"kind": "forest", "n_trees": 5, "max_depth": 6},
    "eval": {"mode": "frame"},
}


def report_without_timings(path):
    obj = read_json(path)
    obj.pop("timings")
    return json.dumps(obj, sort_keys=True)


class TestPipeline:
    def test_run_directory_contents(self, workspace):
        write_json("config.json", PIPELINE_CONFIG)
        assert run(["pipeline", "--config", "config.json", "--out", "run1"]) == 0
        expected = [
            "resolved_config.json", "ambient.log", "attack.log", "attack.labels.json",
            "sidecar.json", "train.csv", "test.csv", "model.json",
            "report.json", "report.csv", "report.txt",
        ]
        for name in expected:
            assert os.path.isfile(os.path.join("run1", name)), name

    def test_reports_reproducible_outside_timings(self, workspace):
        write_json("config.json", PIPELINE_CONFIG)
        assert run(["pipeline", "--config", "config.json", "--out", "runA"]) == 0
        assert run(["pipeline", "--config", "config.json", "--out", "runB"]) == 0
        assert report_without_timings("runA/report.json") == report_without_timings(
            "runB/report.json"
        )
        raw_a = read_json("runA/report.json")
        raw_b = read_json("runB/report.json")
        assert raw_a["timings"].keys() == raw_b["timings"].keys()

    def test_seed_override_changes_split(self, workspace):
        write_json("config.json", PIPELINE_CONFIG)
        assert run(["pipeline", "--config", "config.json", "--out", "runA"]) == 0
        assert run(["pipeline", "--config", "config.json", "--out", "runB", "--seed", "99"]) == 0
        a = read_json("runA/resolved_config.json")
        b = read_json("runB/resolved_config.json")
        assert a["seed"] == 5 and b["seed"] == 99

    def test_window_mode_defaults_to_chronological_split(self, workspace):
        config = dict(PIPELINE_CONFIG)
        config["split"] = {"ratio": 0.8}
        config["eval"] = {"mode": "window", "window": 29, "step": 29}
        write_json("config.json", config)
        assert run(["pipeline", "--config", "config.json", "--out", "runw"]) == 0
        resolved = read_json("runw/resolved_config.json")
        assert resolved["split"]["mode"] == "chronological"
        report = read_json("runw/report.json")
        assert report["mode"] == "window"
        assert report["classes"] == ["Normal", "Attack"]

    def test_frequency_pipeline(self, workspace):
        config = {
            "seed": 2,
            "ambient": AMBIENT,
            "scenario": DOS_SCENARIO,
            "model": {"kind": "frequency", "k_sigma": 4.0},
        }
        write_json("config.json", config)
        assert run(["pipeline", "--config", "config.json", "--out", "runf"]) == 0
        report = read_json("runf/report.json")
        attack = next(r for r in report["per_class"] if r["class"] == "Attack")
        assert attack["recall"] >= 0.99

    def test_unknown_model_kind(self, workspace, capsys):
        config = dict(PIPELINE_CONFIG, model={"kind": "quantum"})
        write_json("config.json", config)
        assert run(["pipeline", "--config", "config.json", "--out", "runq"]) == 2
        assert "quantum" in capsys.readouterr().err

    def test_config_required(self, workspace, capsys):
        assert run(["pipeline", "--out", "runx"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_scenario_by_path_reference(self, workspace):
        config = dict(PIPELINE_CONFIG)
        config["ambient"] = {"path": "ambient.json"}
        config["scenario"] = {"path": "scenario.json"}
        write_json("config.json", config)
        assert run(["pipeline", "--config", "config.json", "--out", "runp"]) == 0


def artifact_digests(run_dir):
    """SHA-256 of every file in a pipeline run directory; report.json is
    hashed outside its wall-clock `timings` block."""
    digests = {}
    for name in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
        if name == "report.json":
            data = report_without_timings(os.path.join(run_dir, name)).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


class TestArtifactDigests:
    """Every artifact of two small pipeline runs is pinned by digest, so a
    change to a writer (candump, labels, bit grids, id sequences, dataset
    CSV) or to a stage before it cannot alter the files silently."""

    def test_dos_forest_with_windows(self, workspace):
        config = {
            "seed": 5,
            "ambient": AMBIENT,
            "scenario": DOS_SCENARIO,
            "model": {"kind": "forest", "n_trees": 3, "max_depth": 5},
            "windows": {"window": 29, "step": 29, "sequences": 16},
        }
        write_json("config.json", config)
        assert run(["pipeline", "--config", "config.json", "--out", "rund"]) == 0
        assert artifact_digests("rund") == {
            "ambient.log": "81b8fa02bcbb47166acb791b666df92bea4bd1e48d4acdbc5c37f180e84865b4",
            "attack.labels.json": "04f01bd038cce65d5797598b98624bd704d09ddcfbfcb8b686972b73bfdbd3af",
            "attack.log": "757bcf124beccdc57bd9d88516202298f2ad339ef7f4805a5e728c39de52ba66",
            "grid_labels.bin": "ed27844a99dd0ebab3a551f2e6bf2346a13b6039ee3288a5825f32c8cd905771",
            "grids.bin": "1cac364b9d4b1d611e27b484deafd31880fd9bcceb685784dc6033998163bf5f",
            "model.json": "b93be0fb3b7828cb2cb7cc643cb6d8a0c878aecac5a75477538756ab8a0eb861",
            "report.csv": "f2b186f6ed9f4281e3490ccfa3d5e2148c358052a9e45c0dd021c7b63331d4dc",
            "report.json": "7593ee511c50689d9ddf056b4a57bbe5284a8a1a38d4c38104e6e003cb0b6946",
            "report.txt": "551a865c2380a71ce0d43b43f6089d87ed2c9e2664f6f1af2eda75bf7524c83f",
            "resolved_config.json": "6d491441bfd1e18cfcb1069dc3a26f0f9b057e74f190247797f2cd61d9c93dd4",
            "sequences.csv": "00375165a6ced99eaf10763bedbf25b1e1e2528a292b248d3c8eb55120b701b6",
            "sidecar.json": "a8c4398149a15eabb136a0105a48780594c1975216e9210361bd5e3948deefe9",
            "test.csv": "b25332249f0418ba69baf17c0feba6534077a1565aa2997b39ebe40a879a523e",
            "train.csv": "1b1f5f6d953fb345f083a323b4e4c53589e525d01b71989d8beadc289a4b5d55",
        }

    def test_fuzzy_extended_ids_with_smote(self, workspace):
        # SMOTE raises the 320 attack rows of train to 600, so train.csv
        # carries interpolated float rows without timestamps.  The sidecar
        # writes its extended ids as 8 hex digits (since 0.2.0).
        config = {
            "seed": 8,
            "ambient": AMBIENT,
            "scenario": {"kind": "fuzzy", "interval": [1.5, 1.7], "seed": 4,
                         "extended_ids": True},
            "smote": {"target_count": 600, "k": 3},
            "model": {"kind": "tree", "max_depth": 6},
        }
        write_json("config.json", config)
        assert run(["pipeline", "--config", "config.json", "--out", "runz"]) == 0
        assert artifact_digests("runz") == {
            "ambient.log": "81b8fa02bcbb47166acb791b666df92bea4bd1e48d4acdbc5c37f180e84865b4",
            "attack.labels.json": "39aeb6ac2b7ccd782d296ac6378e77d5cfea9edffc5d8193bd722e299c4779a7",
            "attack.log": "2a09b1b7d494fc8944b747cdd88ca0828a03f82917244c262c58ef67a7b21ed5",
            "model.json": "04848f7262fc56b9bbecbe7f35dff7e29902727a19e0ee1ad175c903fe2ade96",
            "report.csv": "098612af9de4f7a5fea8315f1d57f33e9b5b58422361b3b77c867d5911338839",
            "report.json": "309a0de39f1862fd26b96318a1fd75832ec7d4d9d4d6c1f8b0bd4a6d5b803dab",
            "report.txt": "e81f77e0b66824a8f8cec4ab61733b72f820630ebca6906fe02d09d35997b441",
            "resolved_config.json": "610400d8101705ffe679790f2246bd7753fd2a9d598b4f62e5de7a5f9d280afe",
            "sidecar.json": "21455898de52e99dd8f8967625ebc47756bdcdc555614df17288aa80919b9f56",
            "test.csv": "038589189c4e44407dbb1e01cc450a071fd7401c10905e5b8889ba3fcddad127",
            "train.csv": "e32049a1a3d0a2e0f6d2802ab47af50e5c6dc0597612d8cef67972b8f7acf047",
        }


class TestDefaultOutputs:
    def test_each_verb_has_its_default_output(self, workspace):
        assert run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json"]) == 0
        assert run(["ingest", "--input", "synth/ambient.log"]) == 0
        assert run(["label", "--log", "synth/attack.log", "--metadata", "synth/sidecar.json"]) == 0
        assert run(["prep", "--log", "synth/attack.log", "--labels", "labels.json"]) == 0
        assert run(["train", "--train", "prep/train.csv", "--model", "tree"]) == 0
        assert run(["eval", "--model", "model.json", "--test", "prep/test.csv"]) == 0
        write_json("config.json", PIPELINE_CONFIG)
        assert run(["pipeline", "--config", "config.json"]) == 0
        for path in ("synth/attack.log", "ingested.log", "labels.json", "prep/train.csv",
                     "model.json", "report.json", "run/report.json"):
            assert os.path.isfile(path), path


class TestArgHandling:
    def test_no_command(self, workspace):
        assert run([]) == 2

    def test_unknown_command(self, workspace):
        assert run(["transmogrify"]) == 2

    def test_help_exits_zero(self, workspace):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        ["synth", "--ambient", "ambient.json", "--scenario", "scenario.json", "--seed", "9"],
        ["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
         "--config", "nothing.json"],
        ["ingest", "--input", "ambient.json", "--config", "none.json"],
        ["label", "--log", "a.log", "--metadata", "m.json", "--seed", "4"],
    ])
    def test_options_only_on_the_verbs_that_read_them(self, workspace, capsys, argv):
        """--seed and --config are refused where no stage reads them."""
        assert run(argv + ["--out", "out"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.path.exists("out")


class TestReadmeExamples:
    def test_quick_start_documents_read_and_synthesize(self, tmp_path, monkeypatch):
        """The Quick start's ambient.json and scenario.json blocks, without
        their comment line, read as documents and run through synth."""
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
            blocks = dict(re.findall(r"```json\n// (\S+)\n(.*?)```", fh.read(), re.DOTALL))
        docs = {name: json.loads(blocks[name]) for name in ("ambient.json", "scenario.json")}
        AmbientModel.from_json_obj(docs["ambient.json"])
        AttackScenario.from_json_obj(docs["scenario.json"])
        monkeypatch.chdir(tmp_path)
        for name, doc in docs.items():
            write_json(name, doc)
        assert run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json"]) == 0


class TestConfigErrorsExit2:
    """Every malformed model, ambient or scenario setting is a configuration
    error (exit 2), whichever verb reads it."""

    @pytest.fixture
    def synth_dir(self, workspace):
        run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
             "--out", "synth"])
        return "synth"

    @pytest.mark.parametrize("params", ['{"wat": 1}', '{"k_sigma": "x"}', '{"k_sigma": -1}'])
    def test_train_frequency_bad_params(self, synth_dir, capsys, params):
        code = run(["train", "--model", "frequency", "--ambient", "synth/ambient.log",
                    "--params", params, "--out", "freq.json"])
        assert code == 2
        assert "frequency" in capsys.readouterr().err
        assert not os.path.exists("freq.json")

    def test_eval_frequency_window_mode(self, synth_dir, capsys):
        """A frequency model flags frames; it has no window-mode report."""
        assert run(["train", "--model", "frequency", "--ambient", "synth/ambient.log",
                    "--out", "freq.json"]) == 0
        code = run(["eval", "--model", "freq.json", "--log", "synth/attack.log",
                    "--labels", "synth/attack.labels.json", "--mode", "window",
                    "--out", "report.json"])
        assert code == 2
        assert "frequency" in capsys.readouterr().err
        assert not os.path.exists("report.json")

    @pytest.mark.parametrize("mode", ["frame", "window"])
    @pytest.mark.parametrize("flag", ["--window", "--step"])
    def test_eval_window_and_step_must_be_positive(self, synth_dir, capsys, mode, flag):
        """Refused like the pipeline's eval.window, in either mode and
        before any file is read: the model named does not exist."""
        for value in ("0", "-3"):
            code = run(["eval", "--model", "missing.json", "--test", "missing.csv",
                        "--mode", mode, flag, value, "--out", "report.json"])
            assert code == 2
            assert f"{flag} must be positive, not {value}" in capsys.readouterr().err
        assert run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
                    "--out", "prep"]) == 0
        assert run(["train", "--train", "prep/train.csv", "--model", "tree",
                    "--params", '{"max_depth": 3}', "--out", "model.json"]) == 0
        code = run(["eval", "--model", "model.json", "--test", "prep/test.csv",
                    "--mode", mode, flag, "0", "--out", "report.json"])
        assert code == 2
        assert f"{flag} must be positive, not 0" in capsys.readouterr().err
        assert not os.path.exists("report.json")

    def test_eval_window_longer_than_test_set(self, synth_dir, capsys):
        """A window valid alone, wrong for this test set: no window is scored."""
        assert run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
                    "--out", "prep"]) == 0
        assert run(["train", "--train", "prep/train.csv", "--model", "tree",
                    "--params", '{"max_depth": 3}', "--out", "model.json"]) == 0
        with open("prep/test.csv") as fh:
            rows = len(fh.readlines()) - 1
        capsys.readouterr()
        code = run(["eval", "--model", "model.json", "--test", "prep/test.csv",
                    "--mode", "window", "--window", "100000", "--out", "report.json"])
        assert code == 2
        assert (f"--window 100000 is longer than the test set's {rows} rows"
                in capsys.readouterr().err)
        assert not os.path.exists("report.json")

    def test_pipeline_window_longer_than_test_set(self, workspace, capsys):
        """Refused after the split, which sizes the test set, and before the fit."""
        write_json("config.json", dict(PIPELINE_CONFIG, eval={"mode": "window", "window": 100000}))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        err = capsys.readouterr().err
        assert re.search(r"eval\.window 100000 is longer than the test set's \d+ rows", err), err
        assert not os.path.exists("runb/model.json")

    @pytest.mark.parametrize("ambient, scenario", [
        (dict(AMBIENT, seed=-3), DOS_SCENARIO),
        (AMBIENT, {"kind": "fuzzy", "interval": [1.0, 2.0], "seed": -2}),
    ])
    def test_synth_negative_seed(self, workspace, capsys, ambient, scenario):
        write_json("bad_ambient.json", ambient)
        write_json("bad_scenario.json", scenario)
        assert run(["synth", "--ambient", "bad_ambient.json", "--scenario", "bad_scenario.json",
                    "--out", "synth"]) == 2
        assert "field 'seed': -" in capsys.readouterr().err
        assert not os.path.exists("synth")

    @pytest.mark.parametrize("argv", [
        ["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
         "--seed", "-1"],
        ["train", "--train", "prep/train.csv", "--model", "forest", "--seed", "-3"],
        ["train", "--train", "prep/train.csv", "--model", "gbdt", "--params", '{"seed": -2}'],
    ])
    def test_prep_and_train_negative_seed(self, synth_dir, capsys, argv):
        assert run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
                    "--out", "prep"]) == 0
        assert run(argv + ["--out", "out"]) == 2
        assert "field 'seed': -" in capsys.readouterr().err
        assert not os.path.exists("out")

    def test_eval_negative_seed(self, synth_dir, capsys):
        """--seed is read as a seed by every verb, eval too, which would
        otherwise write the seed into its report."""
        assert run(["prep", "--log", "synth/attack.log", "--labels", "synth/attack.labels.json",
                    "--out", "prep"]) == 0
        assert run(["train", "--train", "prep/train.csv", "--model", "tree",
                    "--out", "model.json"]) == 0
        assert run(["eval", "--model", "model.json", "--test", "prep/test.csv", "--seed", "-1",
                    "--out", "report.json"]) == 2
        assert "field 'seed': -1 is not an integer from 0" in capsys.readouterr().err
        assert not os.path.exists("report.json")

    @pytest.mark.parametrize("counts, message", [
        (["--smote-target", "50", "--smote-k", "0"], "--smote-k must be positive, not 0"),
        (["--smote-target", "-5"], "--smote-target must be 0 (off) or more, not -5"),
        (["--grid-window", "29", "--grid-step", "0"], "--grid-step must be positive, not 0"),
        (["--grid-window", "-1"], "--grid-window must be 0 (off) or more, not -1"),
        (["--sequence-window", "-4"], "--sequence-window must be 0 (off) or more, not -4"),
    ])
    def test_prep_counts_refused_before_any_read(self, synth_dir, capsys, counts, message):
        for log in ("synth/attack.log", "missing.log"):
            assert run(["prep", "--log", log, "--labels", "synth/attack.labels.json",
                        *counts, "--out", "prep"]) == 2
            assert message in capsys.readouterr().err
            assert not os.path.exists("prep")

    @pytest.mark.parametrize("kind", ["frequency", "tree", "forest", "gbdt", "lccde"])
    def test_pipeline_bad_params(self, workspace, capsys, kind):
        write_json("config.json", dict(PIPELINE_CONFIG, model={"kind": kind, "wat": 1}))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [
        ("model", "forest"),
        ("split", 5),
        ("smote", {"k": "x"}),
        ("eval", {"mode": "window", "window": 0}),
        ("windows", {"window": 0}),
    ])
    def test_pipeline_bad_section(self, workspace, capsys, section, value):
        write_json("config.json", dict(PIPELINE_CONFIG, **{section: value}))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        assert section in capsys.readouterr().err

    BAD_LCCDE_MODELS = [
        {"kind": "lccde", "base_configs": [{"n_roundz": 2}, {"n_rounds": 2}, {"n_rounds": 2}]},
        {"kind": "lccde", "base_configs": [{"n_rounds": "2"}, {"n_rounds": 2}, {"n_rounds": 2}]},
    ]

    @pytest.mark.parametrize("entry, field", [
        ({"seed": "x"}, "seed"),
        ({"split": {"ratio": "x"}}, "split ratio"),
        ({"model": {"kind": "tree", "max_depth": "x"}}, "max_depth"),
        ({"model": BAD_LCCDE_MODELS[0]}, "n_roundz"),
        ({"model": BAD_LCCDE_MODELS[1]}, "n_rounds"),
        ({"seed": -1}, "seed"),
    ])
    def test_pipeline_wrong_types(self, workspace, capsys, entry, field):
        write_json("config.json", dict(PIPELINE_CONFIG, **entry))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        assert field in capsys.readouterr().err

    # Hyperparameters that would fit a wrong model: infinite or NaN leaves
    # from a negative or NaN lambda, one-leaf trees or wrapped candidate
    # slices from min_leaf below 1.
    WRONG_MODELS = [
        {"kind": "gbdt", "reg_lambda": -1.0},
        {"kind": "gbdt", "reg_lambda": float("nan")},
        {"kind": "gbdt", "min_leaf": 0},
        {"kind": "gbdt", "min_leaf": -1},
        {"kind": "forest", "min_leaf": 0},
        {"kind": "forest", "min_leaf": -1},
        {"kind": "lccde", "base_configs": [{"min_leaf": 0}, {}, {}]},
        {"kind": "lccde", "base_configs": [{}, {}, {"reg_lambda": -0.5}]},
    ]

    @pytest.mark.parametrize("entry", [
        {"seed": True},
        {"include_dlc": "yes"},
        {"model": {"kind": "tree", "max_depth": "x"}},
        {"model": {"kind": "gbdt", "wat": 1}},
        {"split": {"ratio": "x"}},
    ] + [{"model": model} for model in BAD_LCCDE_MODELS + WRONG_MODELS] + [
        {"model": {"kind": "frequency"}, "eval": {"mode": "window", "window": 29, "step": 29}},
        {"ambient": dict(AMBIENT, seed=-3)},
        {"scenario": {"kind": "dos", "interval": [2.0, 1.0]}},
    ])
    def test_pipeline_bad_entry_writes_nothing(self, workspace, entry):
        """The config and the model are read before the run writes a file."""
        write_json("config.json", dict(PIPELINE_CONFIG, **entry))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        assert not os.path.exists("runb")

    @pytest.mark.parametrize("split", [{"ratio": "x"}, {"ratio": 1.5}, {"mode": "sideways"}])
    def test_pipeline_bad_split_leaves_run_dir_empty(self, workspace, capsys, split):
        """A bad split is refused before synth writes its logs and labels."""
        os.mkdir("runb")
        write_json("config.json", dict(PIPELINE_CONFIG, split=split))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        assert "split" in capsys.readouterr().err
        assert os.listdir("runb") == []

    def test_train_without_train_csv(self, workspace, capsys):
        assert run(["train", "--model", "tree", "--out", "m.json"]) == 2
        assert "--train" in capsys.readouterr().err

    BAD_SCENARIOS = [
        {},
        [DOS_SCENARIO],
        {"kind": "dos", "interval": [1.0]},
        {"kind": "dos", "interval": "1-2"},
        {"kind": "dos", "interval": [1.0, 2.0], "seed": None},
        {"kind": "targeted_spoof", "interval": [1.0, 2.0], "target_id": "0D0", "payload": 5},
    ]
    BAD_AMBIENTS = [
        {"duration": 4.0},
        {"duration": 4.0, "ids": [{"id": "0D0"}]},
        {"duration": 4.0, "ids": [{"period": 0.01}]},
        {"duration": 4.0, "ids": [{"id": "0D0", "period": 0.01, "payload": "x"}]},
        {"duration": 4.0, "ids": [{"id": "0D0", "period": [0.01]}]},
    ]
    # Documents whose every field has its kind, but which no synthesis can
    # run: each is refused when read, naming the field.
    UNRUNNABLE = [
        (AMBIENT, {"kind": "targeted_spoof", "interval": [1.0, 2.0], "target_id": "316",
                   "payload": "FF" * 9}, "payload"),
        (AMBIENT, {"kind": "fabrication", "interval": [1.0, 2.0], "target_id": "0D0",
                   "payload_spec": "ZZ"}, "payload_spec"),
        (AMBIENT, {"kind": "masquerade", "interval": [1.0, 2.0], "target_id": "0D0",
                   "payload_spec": "0" * 17}, "payload_spec"),
        (AMBIENT, {"kind": "dos", "interval": [1.0, 1e30]}, "interval"),
        (AMBIENT, {"kind": "fuzzy", "interval": [1.0, 2.0], "period": 1e-7}, "period"),
        (AMBIENT, {"kind": "dos", "interval": [1.0, 2.0], "period": 1e30}, "period"),
        (AMBIENT, {"kind": "dos", "interval": [1.0, 2.0], "attack_class": "Normal"}, "attack_class"),
        ({"duration": 4.0, "ids": [{"id": "800", "period": 0.01, "extended": False}]},
         DOS_SCENARIO, "extended"),
        ({"duration": 4.0, "ids": [{"id": "0D0", "period": 1e-7}]}, DOS_SCENARIO, "period"),
        ({"duration": 1e30, "ids": [{"id": "0D0", "period": 1e29}]}, DOS_SCENARIO, "period"),
        ({"duration": 1e30, "ids": [{"id": "0D0", "period": 0.01}]}, DOS_SCENARIO, "duration"),
        ({"duration": 0.001, "ids": [{"id": "0D0", "period": 0.01}]},
         {"kind": "dos", "interval": [-1.0, 0.5]}, "interval"),
    ]

    @pytest.mark.parametrize("ambient, scenario", [(AMBIENT, s) for s in BAD_SCENARIOS]
                             + [(a, DOS_SCENARIO) for a in BAD_AMBIENTS]
                             + [(a, s) for a, s, _ in UNRUNNABLE])
    def test_synth_and_pipeline_bad_documents(self, workspace, capsys, ambient, scenario):
        write_json("bad_ambient.json", ambient)
        write_json("bad_scenario.json", scenario)
        assert run(["synth", "--ambient", "bad_ambient.json", "--scenario", "bad_scenario.json",
                    "--out", "synth"]) == 2
        assert "bad ambient/scenario config" in capsys.readouterr().err
        write_json("config.json", dict(PIPELINE_CONFIG, ambient=ambient, scenario=scenario))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        assert "bad ambient/scenario config" in capsys.readouterr().err

    @pytest.mark.parametrize("ambient, scenario, field", UNRUNNABLE)
    def test_synth_refuses_what_it_cannot_run_when_read(self, workspace, capsys, ambient, scenario,
                                                        field):
        """Refused when read, not from inside the synthesis: exit 2 naming
        the field, before any file is written."""
        write_json("bad_ambient.json", ambient)
        write_json("bad_scenario.json", scenario)
        assert run(["synth", "--ambient", "bad_ambient.json", "--scenario", "bad_scenario.json",
                    "--out", "synth"]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not os.path.exists("synth")

    # Scenarios that read and run, but whose attack frames match the ambient
    # frames the sidecar selects by id, interval and payload pattern, so the
    # sidecar cannot relabel the log: refused naming the field that fixes them.
    LOOKS_AMBIENT = [
        ({"kind": "targeted_spoof", "interval": [0.5, 0.8], "target_id": "0D0",
          "payload": "0102030405060708"}, "payload"),
        ({"kind": "fabrication", "interval": [0.5, 0.8], "target_id": "0D0", "payload_spec": "XX"},
         "payload_spec"),
    ]

    @pytest.mark.parametrize("scenario, field", LOOKS_AMBIENT)
    def test_attack_frames_that_look_ambient_are_refused(self, workspace, capsys, scenario, field):
        ambient = {"duration": 1.0, "ids": [{"id": "0D0", "period": 0.01, "payload": {
            "kind": "constant", "base": "0102030405060708"}}]}
        write_json("plain_ambient.json", ambient)
        write_json("bad_scenario.json", scenario)
        assert run(["synth", "--ambient", "plain_ambient.json", "--scenario", "bad_scenario.json",
                    "--out", "synth"]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and "first mismatch at frame" in err and "id 0x0D0" in err
        assert not os.path.exists("synth")
        write_json("config.json", dict(PIPELINE_CONFIG, ambient=ambient, scenario=scenario))
        assert run(["pipeline", "--config", "config.json", "--out", "runb"]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not os.path.exists("runb")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def report_outside(path, keys=("timings", "dataset", "seed")):
    obj = read_json(path)
    for key in keys:
        obj.pop(key)
    return obj


class TestPipelineEqualsVerbs:
    """`pipeline` runs the stages of synth, prep, train and eval: the same
    config by hand through the verbs gives the same files."""

    CASES = {
        "forest-smote": dict(
            split={"ratio": 0.7, "mode": "stratified_random"},
            smote={"target_count": 3000, "k": 3},  # about 700 rows over the DoS rows of train
            model={"kind": "forest", "n_trees": 3, "max_depth": 5},
            eval={"mode": "frame", "window": 29, "step": 29},
        ),
        "gbdt-window": dict(
            split={"ratio": 0.8, "mode": "chronological"},
            model={"kind": "gbdt", "n_rounds": 3, "max_depth": 3},
            eval={"mode": "window", "window": 16, "step": 8},
        ),
        "frequency": dict(
            model={"kind": "frequency", "k_sigma": 3.0},
            eval={"mode": "frame", "window": 29, "step": 29},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_artifacts(self, workspace, case):
        cfg = self.CASES[case]
        seed = "7"
        write_json("config.json", dict(cfg, seed=7, ambient=AMBIENT, scenario=DOS_SCENARIO))
        assert run(["pipeline", "--config", "config.json", "--out", "run"]) == 0

        assert run(["synth", "--ambient", "ambient.json", "--scenario", "scenario.json",
                    "--out", "s"]) == 0
        model = dict(cfg["model"])
        kind = model.pop("kind")
        if kind == "frequency":
            assert run(["train", "--model", kind, "--ambient", "s/ambient.log",
                        "--params", json.dumps(model), "--seed", seed, "--out", "model.json"]) == 0
            assert run(["eval", "--model", "model.json", "--log", "s/attack.log",
                        "--labels", "s/attack.labels.json", "--seed", seed,
                        "--out", "report.json"]) == 0
            compared = []
        else:
            prep = ["prep", "--log", "s/attack.log", "--labels", "s/attack.labels.json",
                    "--ratio", str(cfg["split"]["ratio"]), "--mode", cfg["split"]["mode"],
                    "--seed", seed, "--out", "p"]
            if "smote" in cfg:
                prep += ["--smote-target", str(cfg["smote"]["target_count"]),
                         "--smote-k", str(cfg["smote"]["k"])]
            assert run(prep) == 0
            assert run(["train", "--train", "p/train.csv", "--classes", "p/classes.json",
                        "--model", kind, "--params", json.dumps(model), "--seed", seed,
                        "--out", "model.json"]) == 0
            ecfg = cfg["eval"]
            assert run(["eval", "--model", "model.json", "--test", "p/test.csv",
                        "--mode", ecfg["mode"], "--window", str(ecfg["window"]),
                        "--step", str(ecfg["step"]), "--seed", seed, "--out", "report.json"]) == 0
            compared = [("run/train.csv", "p/train.csv"), ("run/test.csv", "p/test.csv")]
        compared += [("run/model.json", "model.json")]
        compared += [(f"run/{name}", f"s/{name}") for name in
                     ("ambient.log", "attack.log", "attack.labels.json", "sidecar.json")]
        for mine, theirs in compared:
            assert read_bytes(mine) == read_bytes(theirs), mine
        assert report_outside("run/report.json") == report_outside("report.json")
        if "smote" in cfg:
            assert read_json("run/report.json")["dataset"]["train_synthetic_rows"] > 0
