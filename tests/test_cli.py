import json
import os
import subprocess
import sys
from fractions import Fraction

from posmon.cli import cache_key, main, report_to_factorizations
from posmon.factorize import Factorization

F = Fraction


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "posmon", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestFactorizeCommand:
    def test_explicit_six_json(self):
        proc = run_cli("factorize", "--family", "explicit", "--gens", "2,3", "--x", "6")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["completeness"] == "complete"
        assert report["factorizations"] == [[["2", 3]], [["3", 2]]]
        assert report["lengths"] == [2, 3]

    def test_dense_requires_max_den(self):
        proc = run_cli("factorize", "--family", "conductor", "--x", "3", "--length", "2")
        assert proc.returncode == 1
        assert "dense family requires --max-den" in proc.stderr

    def test_conductor_slice(self):
        proc = run_cli(
            "factorize", "--family", "conductor", "--x", "3", "--length", "2", "--max-den", "3"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["factorizations"] == [[["4/3", 1], ["5/3", 1]], [["3/2", 2]]]

    def test_report_roundtrip_lossless(self):
        proc = run_cli(
            "factorize", "--family", "grams", "--k", "3", "--x", "13/30"
        )
        report = json.loads(proc.stdout)
        zs = report_to_factorizations(report)
        assert zs == [Factorization(((F(1, 10), 1), (F(1, 3), 1)))]
        assert all(z.value == F(report["query"]["x"]) for z in zs)

    def test_table_format_row_cap(self):
        proc = run_cli(
            "factorize", "--family", "explicit", "--gens", "2,3", "--x", "30",
            "--format", "table", "--max-rows", "2",
        )
        assert proc.returncode == 0
        assert "... and" in proc.stdout and "more" in proc.stdout

    def test_csv_format(self):
        proc = run_cli(
            "factorize", "--family", "explicit", "--gens", "2,3", "--x", "6",
            "--format", "csv",
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "factorization,length,value"
        assert "2+2+2,3,6" in lines and "3+3,2,6" in lines

    def test_usage_error_lists_flag(self):
        proc = run_cli("factorize", "--x", "6")
        assert proc.returncode == 1
        assert "--family" in proc.stderr

    def test_argparse_error_is_exit_1(self):
        proc = run_cli("factorize", "--family", "explicit", "--gens", "2,3")
        assert proc.returncode == 1  # missing --x

    def test_bad_input_ends_in_an_error_line(self, tmp_path):
        not_json = tmp_path / "not-json.json"
        not_json.write_text("not json")
        cache = str(tmp_path / "cache")

        def config(text):
            path = tmp_path / f"config-{len(list(tmp_path.glob('config-*')))}.json"
            path.write_text(text)
            return str(path)

        for argv, prefix in (
            *(
                (("factorize", "--config", config(text), "--x", "13/30"), "usage error:")
                for text in (
                    '{"family": "grams", "k": "3"}',
                    '{"family": ["grams"]}',
                    '{"family": "grams", "k": 2.5}',
                    '{"family": "explicit", "gens": 5}',
                    '{"family": "grams", "k": true}',
                    '{"family": "grams", "q": "2/3"}',
                )
            ),
            (("check", "bf", "--config", config('{"family": "unit-fractions", "max_prime": "7"}')), "usage error:"),
            (("factorize", "--family", "grams", "--q", "2/3", "--k", "3", "--x", "1/3"), "usage error:"),
            (("check", "bf", "--family", "unit-fractions", "--q", "2/3", "--max-prime", "7"), "usage error:"),
            (("factorize", "--family", "grams", "--k", "3", "--max-den", "5", "--x", "1/3"), "usage error:"),
            (("factorize", "--family", "conductor", "--k", "3", "--max-den", "5", "--x", "3", "--length", "2"),
             "usage error:"),
            (("semiring", "mul", "--family", "explicit", "--gens", "2,3", "--f", "2*x^(1/0)", "--g", "1"), "error:"),
            (("factorize", "--family", "explicit", "--gens", "2,3", "--x", "abc"), "error:"),
            (("factorize", "--family", "explicit", "--gens", "a,3", "--x", "6"), "usage error:"),
            (("factorize", "--family", "alternating", "--primes", "a,3", "--k", "2", "--x", "1"), "usage error:"),
            (("seq", "lis", "--input", str(tmp_path / "missing.txt")), "error:"),
            (("factorize", "--config", str(not_json), "--x", "6"), "usage error:"),
            (("factorize", "--config", str(not_json), "--x", "6", "--cache-dir", cache), "usage error:"),
            (("factorize", "--config", str(tmp_path / "missing.json"), "--x", "6", "--cache-dir", cache), "error:"),
        ):
            proc = run_cli(*argv)
            assert proc.returncode == 1, argv
            assert proc.stderr.startswith(prefix), (argv, proc.stderr)
            assert "Traceback" not in proc.stderr, argv


class TestExplicitBounds:
    """An explicit 0 or negative bound is checked, never replaced by a default."""

    def run_main(self, capsys, *argv):
        status = main([*argv, "--no-cache"])
        return (status, *capsys.readouterr())

    def test_atoms_count_zero(self, capsys):
        status, out, err = self.run_main(capsys, "atoms", "--family", "grams", "--count", "0", "--k", "3")
        assert (status, out, err) == (1, "", "error: k must be >= 1\n")

    def test_semiring_factor_max_len_zero(self, capsys):
        argv = ("semiring", "factor", "--family", "explicit", "--gens", "2,3", "--f", "x^4 + 2*x^2 + 1")
        status, out, err = self.run_main(capsys, *argv, "--max-len", "0")
        assert (status, out, err) == (1, "", "error: max_len must be >= 1\n")

    def test_negative_max_rows_is_a_usage_error(self, capsys):
        argv = ("factorize", "--family", "explicit", "--gens", "2,3", "--x", "7", "--format", "table")
        status, out, err = self.run_main(capsys, *argv, "--max-rows", "-1")
        assert (status, out, err) == (1, "", "usage error: argument --max-rows: must be >= 0, not -1\n")
        status, out, _ = self.run_main(capsys, *argv, "--max-rows", "0")
        assert status == 0 and "factorizations:\n  ... and 1 more\n" in out


class TestOtherQueries:
    def test_lengths(self):
        proc = run_cli(
            "lengths", "--family", "unit-fractions", "--max-prime", "13",
            "--x", "1", "--max-len", "13",
        )
        report = json.loads(proc.stdout)
        assert report["lengths"] == [2, 3, 5, 7, 11, 13]

    def test_atoms(self):
        proc = run_cli("atoms", "--family", "grams", "--count", "4")
        report = json.loads(proc.stdout)
        assert report["atoms"] == ["1/3", "1/10", "1/28", "1/88"]
        assert report["method"] == "p-adic-certificate"

    def test_seq_lis(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1\n3\n2\n4\n")
        proc = run_cli("seq", "lis", "--input", str(path))
        report = json.loads(proc.stdout)
        assert report["length"] == 3
        assert report["values"] == ["1", "3", "4"]

    def test_seq_sum(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("3\n2\n1\n")
        b.write_text("1\n1\n1\n")
        proc = run_cli("seq", "sum", "--input", str(a), "--input", str(b))
        assert json.loads(proc.stdout)["terms"] == ["4", "3", "2"]

    def test_semiring_div(self):
        proc = run_cli(
            "semiring", "div", "--family", "explicit", "--gens", "2,3",
            "--f", "1 + x^2 + x^3 + x^5", "--g", "1 + x^2",
        )
        report = json.loads(proc.stdout)
        assert report["divides"] is True
        assert report["result"] == [["0", 1], ["3", 1]]

    def test_config_file_merged_under_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "explicit", "gens": "2,3"}))
        proc = run_cli("factorize", "--config", str(cfg), "--x", "6")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["lengths"] == [2, 3]
        # flag overrides config
        proc = run_cli("factorize", "--config", str(cfg), "--gens", "2,5", "--x", "7")
        assert json.loads(proc.stdout)["factorizations"] == [[["2", 1], ["5", 1]]]


class TestCheckCommands:
    def test_check_bf(self):
        proc = run_cli("check", "bf", "--family", "unit-fractions", "--max-prime", "13")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verified"] is True
        assert report["witness"]["length_set"] == [2, 3, 5, 7, 11, 13]

    def test_check_accp(self):
        proc = run_cli("check", "accp", "--family", "grams", "--n-max", "20")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verified"] is True

    def test_check_lff_sring(self):
        proc = run_cli(
            "check", "lff", "--family", "sring", "--r", "2", "--max-den", "4",
            "--structure", "multiplicative", "--s", "3",
        )
        report = json.loads(proc.stdout)
        assert proc.returncode == 0 and report["verified"] is True

    def test_check_lff_rejects_an_s_no_witness_reads(self, capsys):
        # the additive witnesses read no s; for s >= min(r^2, 2r) no bound finds a pair
        argv = ("check", "lff", "--no-cache", "--family")
        assert main([*argv, "conductor", "--max-den", "4", "--s", "5"]) == 1
        err = "error: s applies to the sring-multiplicative witness only, not to conductor\n"
        assert capsys.readouterr() == ("", err)
        assert main([*argv, "sring", "--r", "3", "--max-den", "30", "--structure", "multiplicative", "--s", "7"]) == 1
        assert capsys.readouterr() == ("", "error: s must lie strictly between r = 3 and min(r^2, 2r) = 6, got 7\n")

    def test_check_ffm_bound(self):
        proc = run_cli(
            "check", "ffm-bound", "--family", "alternating", "--k", "10", "--x", "11/6"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["witness"]["divisor_indices"] == [1, 2]

    def test_check_classify(self):
        proc = run_cli("check", "classify", "--family", "grams")
        report = json.loads(proc.stdout)
        assert proc.returncode == 0
        verdicts = {k: v["verdict"] for k, v in report["witness"]["table"].items()}
        assert verdicts == {"atomic": "yes", "ACCP": "no", "BF": "no", "FF": "no", "LFF": "yes"}

    def test_example_battery_command_all_verified(self):
        proc = run_cli("paper-examples")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["all_verified"] is True
        assert len(report["items"]) >= 8


class TestCache:
    def test_identical_bytes_and_hit(self, tmp_path):
        cache = str(tmp_path / "cache")
        args = ("factorize", "--family", "explicit", "--gens", "2,3", "--x", "6",
                "--cache-dir", cache)
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert "cache hit" in second.stderr
        assert "cache hit" not in first.stderr

    def test_differing_truncation_differs(self):
        base = {"family": "grams", "x": "13/30", "k": 3}
        other = dict(base, k=4)
        assert cache_key(base) != cache_key(other)

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        args = ("factorize", "--family", "explicit", "--gens", "2,3", "--x", "6",
                "--cache-dir", str(cache))
        first = run_cli(*args)
        for entry in cache.iterdir():
            entry.write_text("{corrupt")
        again = run_cli(*args)
        assert again.returncode == 0
        assert again.stdout == first.stdout
        assert "corrupt" in again.stderr

    def test_edited_config_is_not_replayed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        args = ("factorize", "--config", str(cfg), "--x", "7", "--cache-dir", str(tmp_path / "cache"))
        cfg.write_text(json.dumps({"family": "explicit", "gens": "2,3"}))
        assert json.loads(run_cli(*args).stdout)["factorizations"] == [[["2", 2], ["3", 1]]]
        cfg.write_text(json.dumps({"family": "explicit", "gens": "2,5"}))
        proc = run_cli(*args)
        assert "cache hit" not in proc.stderr
        assert json.loads(proc.stdout)["factorizations"] == [[["2", 1], ["5", 1]]]
        assert "cache hit" in run_cli(*args).stderr

    def test_edited_seq_input_is_not_replayed(self, tmp_path):
        path = tmp_path / "seq.txt"
        args = ("seq", "lis", "--input", str(path), "--cache-dir", str(tmp_path / "cache"))
        path.write_text("1\n3\n2\n")
        assert json.loads(run_cli(*args).stdout)["length"] == 2
        path.write_text("1\n2\n3\n4\n")
        proc = run_cli(*args)
        assert "cache hit" not in proc.stderr
        assert json.loads(proc.stdout)["length"] == 4

    def test_no_cache_bypasses(self, tmp_path):
        cache = tmp_path / "cache"
        run_cli("factorize", "--family", "explicit", "--gens", "2,3", "--x", "6",
                "--cache-dir", str(cache), "--no-cache")
        assert not cache.exists()

    def test_env_var_cache_dir(self, tmp_path):
        cache = tmp_path / "envcache"
        args = ("factorize", "--family", "explicit", "--gens", "2,3", "--x", "6")
        run_cli(*args, env_extra={"POSMON_CACHE_DIR": str(cache)})
        assert cache.exists() and list(cache.iterdir())
