"""scripts/cli_corpus.py: an invocation that raises ends itself, not the run."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "cli_corpus", Path(__file__).resolve().parents[1] / "scripts" / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_corpus)


def test_a_crashing_invocation_is_a_mismatch_and_the_run_goes_on(monkeypatch, capsys):
    main = cli_corpus.cli.main

    def crashing(argv):
        if argv[0] == "census":
            raise OverflowError("math range error")
        return main(argv)

    monkeypatch.setattr(cli_corpus.cli, "main", crashing)
    monkeypatch.setattr(cli_corpus, "CORPUS", [
        (0, "reduce --u 3,1 --v 1,2"),
        (2, "census --a 0 --b 1 --t -1000 --grid 64"),
        (0, "classify --a 0.5 --b 0.8660254037844386"),
    ])
    assert cli_corpus.main() == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[3] == "census --a 0 --b 1 --t -1000 --grid 64"
    assert lines[4].startswith("  exit OverflowError (expected 2)  stdout ")
    assert lines[6] == "classify --a 0.5 --b 0.8660254037844386"
    assert lines[7].startswith("  exit 0 (expected 0)  stdout ")
    assert "OverflowError: math range error" in err
    assert "1 exit code(s) differ" in err
