import dataclasses

import pytest

from ebmvar.cli import EXIT_OK, main


@pytest.fixture
def run_cli(tmp_path):
    """Run one CLI command on the config of model parameters `p` plus
    `sections` (INI section name -> entries), check that it succeeds, and
    return its output directory."""
    def run(p, sections, *argv):
        model = {("lambda" if k == "lam" else k): v
                 for k, v in dataclasses.asdict(p).items()}
        cfg = tmp_path / "exp.ini"
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
            for name, entries in {"model": model, **sections}.items()))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *argv]) == EXIT_OK
        return out
    return run
