"""Every executable line of the ``signreg`` package runs in this test
suite, or ``ALLOW`` says why it stays.

``conftest.py`` traces the run, and moves these tests to its end. A line
is executable when the compiled module carries it on an instruction. An
``ALLOW`` entry names the module, the innermost function (its qualified
name, ``<module>`` at top level) and the line's stripped text, so the
entry survives edits that move the line.
"""

ALLOW = {}


def _executable_lines(tracer):
    """(path, module, function, line number, text) of every executable line."""
    found = []
    for path, module in tracer.files.items():
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        owner = {}  # line -> the innermost function whose instructions carry it

        def walk(code):
            own = tracer.lines_of(code)
            if code.co_name != "<module>":
                own.discard(code.co_firstlineno)  # the def line runs in the enclosing scope
            owner.update(dict.fromkeys(own, code.co_qualname))
            for const in code.co_consts:
                if hasattr(const, "co_lines"):
                    walk(const)

        walk(compile(source, path, "exec"))
        found += [(path, module, function, line, text[line - 1].strip())
                  for line, function in sorted(owner.items()) if line > 0]
    return found


def _unreached(tracer):
    return [(module, function, line, text)
            for path, module, function, line, text in _executable_lines(tracer)
            if (path, line) not in tracer.ran]


def test_every_line_ran_or_is_allowed(line_tracer):
    missed = [f"signreg/{module}.py:{line} in {function}: {text}"
              for module, function, line, text in _unreached(line_tracer)
              if (module, function, text) not in ALLOW]
    assert not missed, ("lines no test ran (test them, delete them, or ALLOW them with a "
                        "reason):\n" + "\n".join(missed))


def test_allow_names_only_unreached_lines(line_tracer):
    unreached = {(module, function, text) for module, function, _, text in _unreached(line_tracer)}
    stale = sorted(set(ALLOW) - unreached)
    assert not stale, f"ALLOW entries whose lines ran, or that name no line: {stale}"
