"""The README's examples run against the live library, so that a public
name they use cannot be deleted or renamed without failing here."""

import json
import os
import re
import shlex

from slmcoint import SLM_RULES, StudyConfig, cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(language):
    with open(README) as fh:
        text = fh.read()
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.S)


def test_readme_python_quick_start_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    p_value, reject = capsys.readouterr().out.split()
    assert 0.0 < float(p_value) <= 1.0
    assert reject in ("True", "False")


def test_readme_study_config_loads():
    (payload,) = _blocks("json")
    config = StudyConfig.from_dict(json.loads(payload))
    assert config.study_kind == "size"
    assert config.memory_settings == (SLM_RULES["SLM3"],)
    assert StudyConfig.from_dict(config.to_dict()) == config


def test_readme_cli_lines_parse():
    # every slmcoint line of the bash blocks is one the parser accepts
    commands = [shlex.split(line)[1:] for block in _blocks("bash")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("slmcoint ")]
    assert sorted({argv[0] for argv in commands}) == [
        "ckc", "estimate", "fit-artfima", "mc", "simulate", "spec-test"]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(cli._attach_weight_support(argv))
