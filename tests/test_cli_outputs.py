"""The CLI's outputs stay as recorded: every query in `cli_outputs.json` gives
its recorded exit code and stdout when replayed in order in this process."""

import json

from record_cli_outputs import OUTPUTS, run


def test_every_recorded_query_gives_its_recorded_exit_code_and_stdout(tmp_path):
    entries = json.loads(OUTPUTS.read_text(encoding="utf-8"))
    results = run([entry["argv"] for entry in entries], str(tmp_path / "cache.txt"))
    for entry, (code, stdout) in zip(entries, results, strict=True):
        assert (code, stdout) == (entry["exit"], entry["stdout"]), entry["argv"]
