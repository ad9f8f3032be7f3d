"""One-token edits of the files `ldovco init` writes and of the bundled
design file: whatever the edit, the CLI returns a documented exit code, with
no exception escaping main."""

from importlib import resources

from ldovco.cli import CONSTANTS_FILE, PROBLEM_FILE, RUNCONFIG_FILE, main

TOKENS = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "abc", "", "1e400")
EXIT_CODES = {0, 1, 2, 3}
# run --budget 12 costs several times an eval, so it takes the edits with
# these tokens only: the ones that parse to a finite, extreme value
RUN_TOKENS = {"0", "1e308", "1e-308"}
DESIGN_FILE = "co.txt"


def value_fields(fields: list[str]) -> range:
    """The indices of a line's values: a variable's bounds, a constraint's
    bound, and every field after the key of any other 'key value...' line."""
    if len(fields) == 5:  # name kind unit lower upper
        return range(3, 5)
    if fields[1] in ("<=", ">="):  # metric direction bound
        return range(2, 3)
    return range(1, len(fields))


def one_token_edits(text: str):
    """(label, token, edited text) for each token written into each value of
    text, on the lines that are neither comments nor section headers. The
    empty token deletes the value."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split("#", 1)[0].split()
        if len(fields) < 2:
            continue
        for f in value_fields(fields):
            for token in TOKENS:
                edited = " ".join(fields[:f] + [token] * bool(token) + fields[f + 1:])
                yield f"{line!r} field {f} -> {token!r}", token, "\n".join(
                    lines[:i] + [edited] + lines[i + 1:]) + "\n"


def test_one_token_edits_exit_with_a_documented_code(tmp_path, capsys):
    assert main(["init", str(tmp_path)]) == 0
    design = tmp_path / DESIGN_FILE
    design.write_text((resources.files("ldovco.data") / "point_codesign.txt").read_text())
    config = str(tmp_path / RUNCONFIG_FILE)
    eval_argv = ["eval", str(design), "--config", config]
    run_argv = ["run", config, "--budget", "12"]

    unexpected = []
    calls = 0
    for name in (PROBLEM_FILE, CONSTANTS_FILE, RUNCONFIG_FILE, DESIGN_FILE):
        path = tmp_path / name
        original = path.read_text()
        for label, token, text in one_token_edits(original):
            path.write_text(text)
            argvs = [eval_argv] + [run_argv] * (name != DESIGN_FILE and token in RUN_TOKENS)
            for argv in argvs:
                calls += 1
                try:
                    code = main(argv)
                except Exception as exc:  # noqa: BLE001 - each escape is a finding
                    code = f"{type(exc).__name__}: {exc}"
                if code not in EXIT_CODES:
                    unexpected.append(f"{argv[0]} with {name} {label}: {code}")
            capsys.readouterr()  # drop the output as it goes
        path.write_text(original)
    assert calls > 2000
    assert not unexpected, "\n".join(unexpected)
