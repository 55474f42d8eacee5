"""Spans and counts at the package's layer boundaries, from outside the package.

The tracer rebinds the names that callers look up (`eqsurg.cli.build`,
`eqsurg.lens.eval_word`, `IntMatrix.__matmul__`, ...) to wrappers that
record one span per call: name, start, end, parent span and request id.
Spans stay in memory; `write` saves them when the run ends and
`layer_metrics` turns them into per-layer self times.  A span's self time
is its duration minus the time covered by its children.  No package
source is touched, and only public functions are wrapped, so a layer's
private helpers count as that layer's self time.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self._diagrams: list = []  # legalize inputs, measured between requests
        self._twists: list = []  # transvection keys, measured at the end
        self._undo: list = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self, cli, lens, words, matrices):
        """Rebind every traced boundary; `restore` undoes it."""
        c = self.counts

        def add(key, n=1):
            c[key] += n

        self.patch(lens, "expand", "contfrac.expand",
                   lambda a, r: add("contfrac.terms", len(r.terms)))
        self.patch(cli, "build", "lens.build")
        self.patch(lens.BuildReport, "to_json_dict", "lens.to_json")
        for owner in (lens, cli):
            self.patch(owner, "eval_word", "words.eval_word",
                       lambda a, r: add("words.eval_word.factors", len(a[0].factors)))
        self.patch(lens, "validate_equivariant_shape", "words.shape",
                   lambda a, r: add("words.shape.middle_units", len(r.middle)))
        self.patch(lens, "find_fix_rule", "words.fix_rule",
                   lambda a, r: add("words.fix_rule.scans"))
        self.patch(lens, "apply_fix_rule", "words.fix_rule",
                   lambda a, r: add("words.fix_rule.applied"))
        self.patch(cli, "parse_word", "words.parse_word")
        self.patch(cli, "factor_palindrome", "words.factor_palindrome")
        self.patch(words, "transvection", "matrices.transvection",
                   lambda a, r: self._twists.append((a[0], a[1], a[2].genus)))
        self.patch(matrices.IntMatrix, "__matmul__", "matrices.matmul",
                   lambda a, r: add("matrices.scalar_mults", len(r.rows) ** 3))
        self.patch(lens, "word_to_diagram", "surgery.word_to_diagram",
                   lambda a, r: add("surgery.knots", len(r.knots)))
        self.patch(lens, "legalize", "contact.legalize",
                   lambda a, r: self._diagrams.append(a[0]))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def end_request(self):
        """Count knots outside every span: hashing them is not the program's work."""
        for d in self._diagrams:
            self.counts["contact.knots"] += len(d.knots)
            self.counts["contact.distinct_knots"] += len(set(d.knots))
        self._diagrams.clear()

    def layer_metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        child_ns = [0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            if parent >= 0:
                child_ns[parent] += dur
            calls[name] += 1
            self_ns[name] += dur - child_ns[i]
        c = self.counts
        twists = len(self._twists)

        def ratio(num, den):
            return num / den if den else 0.0

        def s(name):
            return self_ns[name] / 1e9

        return {
            "contfrac.expand.calls": calls["contfrac.expand"],
            "contfrac.expand.self_s": s("contfrac.expand"),
            "contfrac.terms": c["contfrac.terms"],
            "lens.build.calls": calls["lens.build"],
            "lens.build.self_s": s("lens.build"),
            "lens.assemble_ratio": ratio(calls["lens.build"], calls["words.shape"]),
            "words.eval_word.calls": calls["words.eval_word"],
            "words.eval_word.self_s": s("words.eval_word"),
            "words.eval_word.factors": c["words.eval_word.factors"],
            "words.shape.self_s": s("words.shape"),
            "words.shape.middle_units": c["words.shape.middle_units"],
            "words.fix_rule.self_s": s("words.fix_rule"),
            "words.fix_rule.hit_ratio": ratio(c["words.fix_rule.applied"],
                                              c["words.fix_rule.scans"]),
            "words.parse_word.self_s": s("words.parse_word"),
            "words.factor_palindrome.self_s": s("words.factor_palindrome"),
            "matrices.matmul.calls": calls["matrices.matmul"],
            "matrices.matmul.self_s": s("matrices.matmul"),
            "matrices.scalar_mults": c["matrices.scalar_mults"],
            "matrices.transvection.calls": twists,
            "matrices.transvection.distinct_ratio": ratio(len(set(self._twists)), twists),
            "surgery.word_to_diagram.self_s": s("surgery.word_to_diagram"),
            "surgery.knots": c["surgery.knots"],
            "contact.legalize.self_s": s("contact.legalize"),
            "contact.distinct_knot_ratio": ratio(c["contact.distinct_knots"],
                                                 c["contact.knots"]),
            "lens.to_json.self_s": s("lens.to_json"),
            "cli.self_s": s("cli.main"),
        }

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_ns,end_ns,parent,request\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{request}\n")
