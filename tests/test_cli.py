"""CLI surface: subcommands, report files, documented exit codes."""

import json

import pytest

from lockstep_mcu import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestRun:
    def test_kernel_run_report_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "run", "--kernel", "exit0")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "run-report/1"
        assert report["exit_code"] == 0
        assert report["cycles"] < 100
        assert "cycles=" in err

    def test_report_file_and_memdump(self, capsys, tmp_path):
        rep = tmp_path / "out.json"
        mem = tmp_path / "mem.bin"
        code, out, _ = run_cli(capsys, "run", "--kernel", "matmul8",
                               "--mode", "parallel",
                               "--report", str(rep), "--dump-mem", str(mem))
        assert code == 0
        assert out == ""
        report = json.loads(rep.read_text())
        assert report["mode"] == "parallel"
        assert report["cycles"] > 0
        assert mem.stat().st_size == 256 * 1024

    def test_trace_file(self, capsys, tmp_path):
        tr = tmp_path / "trace.txt"
        code, _, _ = run_cli(capsys, "run", "--kernel", "exit0",
                             "--trace", str(tr))
        assert code == 0
        lines = tr.read_text().splitlines()
        assert len(lines) > 10
        assert "csrr" in lines[0] or "lui" in lines[0]

    def test_binary_run(self, capsys, tmp_path):
        img = tmp_path / "prog.bin"
        run_cli(capsys, "kernels", "emit", "exit0", "-o", str(img))
        code, out, _ = run_cli(capsys, "run", "--binary", str(img))
        assert code == 0
        assert json.loads(out)["exit_code"] == 0

    def test_timeout_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--kernel", "park",
                               "--max-cycles", "2000")
        assert code == 2
        assert json.loads(out)["timed_out"] is True

    def test_guest_error_exit_code(self, capsys, tmp_path):
        img = tmp_path / "bad.bin"
        img.write_bytes(b"\xff\xff\xff\xff")  # illegal instruction
        code, out, _ = run_cli(capsys, "run", "--binary", str(img))
        assert code == 1
        assert json.loads(out)["exit_code"] == 0xDEAD0002

    def test_seed_reproducibility_through_cli(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "run", "--kernel", "matmul8",
                                "--seed", "9")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_missing_kernel_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--kernel", "nosuch")
        assert code == 64
        assert "load error" in err


class TestUsageErrors:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--version"])
        assert e.value.code == 0
        out, _ = capsys.readouterr()
        assert out.strip()

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["run", "--kernel", "exit0", "--frobnicate"])
        assert e.value.code == 64

    def test_zero_scrub_interval(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["run", "--kernel", "exit0", "--scrub-interval", "0"])
        assert e.value.code == 64
        assert "--scrub-interval" in capsys.readouterr().err

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main([])
        assert e.value.code == 64

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["run", "--help"])
        assert e.value.code == 0
        out, _ = capsys.readouterr()
        for flag in ("--kernel", "--mode", "--max-cycles", "--scrub-interval",
                     "--trace", "--report"):
            assert flag in out


class TestKernels:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "kernels", "list")
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()]
        assert "matmul24" in names
        assert "exit0" in names
        modes = {line.split()[0]: line.split()[1] for line in out.splitlines()}
        assert modes["matmul24"] == "lockstep,single,parallel"
        assert modes["relock"] == "lockstep"

    def test_run_unsupported_mode_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--kernel", "relock",
                               "--mode", "parallel")
        assert code == 64
        assert "does not run in mode" in err

    def test_emit_roundtrip(self, capsys, tmp_path):
        img = tmp_path / "m8.bin"
        code, _, err = run_cli(capsys, "kernels", "emit", "matmul8",
                               "-o", str(img), "--mode", "parallel")
        assert code == 0
        assert img.stat().st_size > 500

    def test_emit_unknown(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "kernels", "emit", "zzz",
                               "-o", str(tmp_path / "x.bin"))
        assert code == 64


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error (64), not
    a traceback with the guest-error code (1)."""

    @pytest.mark.parametrize("flag", ["--report", "--trace", "--dump-mem"])
    def test_run_outputs(self, capsys, tmp_path, flag):
        bad = str(tmp_path / "missing" / "out")
        code, _, err = run_cli(capsys, "run", "--kernel", "exit0", flag, bad)
        assert code == 64
        assert f"cannot write {bad}" in err

    def test_run_output_is_a_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--kernel", "exit0",
                               "--report", str(tmp_path))
        assert code == 64
        assert "cannot write" in err

    def test_kernels_emit(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "kernels", "emit", "exit0", "-o",
                               str(tmp_path / "missing" / "x.bin"))
        assert code == 64
        assert "cannot write" in err

    def test_campaign_run(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kernel": "matmul3", "runs": 1,
                                    "seed": 1}))
        code, _, err = run_cli(capsys, "campaign", "run", str(spec), "-o",
                               str(tmp_path / "missing" / "r.json"))
        assert code == 64
        assert "cannot write" in err


class TestEcc:
    def test_encode_zero(self, capsys):
        code, out, _ = run_cli(capsys, "ecc", "encode", "0x00000000")
        assert code == 0
        assert json.loads(out)["codeword"] == "0x000000000"

    def test_encode_decode_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "ecc", "encode", "0xDEADBEEF")
        cw = json.loads(out)["codeword"]
        code, out, _ = run_cli(capsys, "ecc", "decode", cw)
        assert code == 0
        d = json.loads(out)
        assert d["data"] == "0xdeadbeef"
        assert d["status"] == "clean"

    def test_decode_flags_single_error(self, capsys):
        _, out, _ = run_cli(capsys, "ecc", "encode", "0x12345678")
        cw = int(json.loads(out)["codeword"], 16) ^ (1 << 5)
        code, out, _ = run_cli(capsys, "ecc", "decode", hex(cw))
        d = json.loads(out)
        assert d["status"] == "corrected"
        assert d["bit_index"] == 5
        assert d["data"] == "0x12345678"

    @pytest.mark.parametrize("argv", [
        ("decode", "-5"), ("decode", "0x8000000000"),
        ("encode", "-1"), ("encode", "0x100000000")])
    def test_out_of_range_argument_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(["ecc", *argv])
        assert e.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be in 0.." in err

    def test_widest_arguments_accepted(self, capsys):
        assert run_cli(capsys, "ecc", "encode", "0xffffffff")[0] == 0
        assert run_cli(capsys, "ecc", "decode", "0x7fffffffff")[0] == 0

    def test_matrix_dump(self, capsys):
        code, out, _ = run_cli(capsys, "ecc", "matrix")
        assert code == 0
        assert out.count("row ") == 7


class TestCampaign:
    def spec_file(self, tmp_path, **kw):
        spec = {"kernel": "matmul8", "mode": "lockstep", "runs": 4,
                "seed": 7, "targets": ["core"]}
        spec.update(kw)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_campaign_run(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "campaign", "run",
                               str(self.spec_file(tmp_path)),
                               "-o", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "campaign-report/1"
        assert report["totals"]["runs"] == 4
        assert "outcomes:" in err

    def test_jobs_flag_identical_report(self, capsys, tmp_path):
        reports = []
        for jobs in ("1", "2"):
            out_path = tmp_path / f"r{jobs}.json"
            code, _, _ = run_cli(capsys, "campaign", "run",
                                 str(self.spec_file(tmp_path)),
                                 "-o", str(out_path), "--jobs", jobs)
            assert code == 0
            reports.append(out_path.read_text())
        assert reports[0] == reports[1]

    def test_sdc_exit_code(self, capsys, tmp_path):
        # unprotected single-core mode with live-register faults
        path = self.spec_file(tmp_path, mode="single", runs=12,
                              harts=[0], seed=11)
        code, out, _ = run_cli(capsys, "campaign", "run", str(path))
        assert code == 4
        report = json.loads(out)
        assert report["classes"]["silent_data_corruption"] > 0

    def test_zero_scrub_interval_usage_error(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, scrub_interval=0)
        code, _, err = run_cli(capsys, "campaign", "run", str(path))
        assert code == 64
        assert "scrub_interval" in err

    def test_unsupported_mode_usage_error(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, kernel="modeswitch", mode="single")
        code, _, err = run_cli(capsys, "campaign", "run", str(path))
        assert code == 64
        assert "does not run in mode" in err

    def test_bad_event_usage_error(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, runs=1, events=[
            {"kind": "core", "at_cycle": 10, "hart": 7, "loc": "x5"}])
        code, _, err = run_cli(capsys, "campaign", "run", str(path))
        assert code == 64
        assert "bad event hart" in err

    @pytest.mark.parametrize("field,value", [
        ("scrub_enabled", "no"), ("targets", "core")])
    def test_mistyped_spec_field_usage_error(self, capsys, tmp_path, field,
                                             value):
        path = self.spec_file(tmp_path, **{field: value})
        code, _, err = run_cli(capsys, "campaign", "run", str(path))
        assert code == 64
        assert field in err

    def test_bad_spec_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kernel": "matmul8", "targets": ["x"]}))
        code, _, err = run_cli(capsys, "campaign", "run", str(path))
        assert code == 64
        assert "campaign error" in err


class TestBadInput:
    """Malformed input ends in a one-line error and exit 64, not a
    traceback."""

    def campaign(self, capsys, tmp_path, data: bytes):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        return run_cli(capsys, "campaign", "run", str(path))

    def test_spec_not_utf8(self, capsys, tmp_path):
        code, _, err = self.campaign(capsys, tmp_path, b'{"kernel": "\xff"}')
        assert code == 64
        assert "campaign error" in err

    def test_spec_nested_too_deep(self, capsys, tmp_path):
        code, _, err = self.campaign(capsys, tmp_path, b"[" * 100_000)
        assert code == 64
        assert "campaign error" in err

    def test_spec_entry_outside_sram(self, capsys, tmp_path):
        image = tmp_path / "exit0.bin"
        run_cli(capsys, "kernels", "emit", "exit0", "-o", str(image))
        spec = {"binary": str(image), "entry": 3, "runs": 1}
        code, _, err = self.campaign(capsys, tmp_path,
                                     json.dumps(spec).encode())
        assert code == 64
        assert "outside SRAM" in err

    def test_negative_max_cycles(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["run", "--kernel", "hello", "--max-cycles", "-1"])
        assert e.value.code == 64
        assert "--max-cycles" in capsys.readouterr().err
