"""The limit runner's row function on tiny rows, one child at a time."""

from limits import Row, run_row


def test_run_row_fails_each_broken_limit_and_passes_a_kept_one(tmp_path):
    def failed(row):
        return run_row(row, tmp_path)[3]

    assert failed(Row("pass", ("-c", "print('ok')"), check=lambda out, err: out == "ok\n",
                       wall=30, rss=500)) == []
    assert "reached the bound 1 MB" in failed(Row("rss", ("-c", "pass"), rss=1))[0]
    assert failed(Row("exit", ("-c", "raise SystemExit(3)")))[0] == "exit 3, expected 0"
    assert failed(Row("traceback", ("-c", "1 / 0"), codes=(1,)))[0] == "traceback on stderr"
    assert failed(Row("check", ("-c", "print(1)"), check=lambda out, err: out == "2\n")
                  )[0] == "output check failed"
    # killed at its wall bound, not waited out
    code, wall, _, reasons = run_row(Row("sleep", ("-c", "import time; time.sleep(5)"),
                                         wall=0.5), tmp_path)
    assert code == -9 and 0.5 <= wall < 2
    assert reasons[0] == "exit -9, expected 0"
    assert "reached the bound 0.5 s" in reasons[1]
