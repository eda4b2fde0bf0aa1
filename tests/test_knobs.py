"""Guard on the public surface: every value a caller can set."""

import dataclasses
import inspect

import neumann_lab

# Every defaulted parameter of a public function, every defaulted
# parameter of a public method of a public class, and every defaulted
# public dataclass field.  A new knob is added here on purpose, or not
# at all.
SETTABLE = """
DomainSpec.a
DomainSpec.a0
DomainSpec.b
DomainSpec.cos_coeffs
DomainSpec.disk(radius)
DomainSpec.interval(a)
DomainSpec.interval(b)
DomainSpec.sin_coeffs
DomainSpec.star_shaped(a0)
DomainSpec.star_shaped(cos_coeffs)
DomainSpec.star_shaped(sin_coeffs)
DomainSpec.to_json(resolution)
EstimateReport.aggregates
ManufacturedCase.analytic_mean
Mesh.R
Mesh.Rp
Mesh.arc
Mesh.h
Mesh.h_s
Mesh.h_theta
Mesh.n
Mesh.n_r
Mesh.n_theta
Mesh.s
Mesh.theta
ProblemFamily.count
ProblemFamily.dim
ProblemFamily.kind
ProblemFamily.seed
VerifyConfig.alpha_main
VerifyConfig.alphas
VerifyConfig.count
VerifyConfig.domain
VerifyConfig.family_kind
VerifyConfig.pinned_resolution
VerifyConfig.resolutions
VerifyConfig.seed
c_k_alpha_norm(pair_strategy)
pairwise_holder_max(groups)
pairwise_holder_max(period)
pairwise_holder_max(strategy)
solve_neumann(compat_policy)
solve_neumann(strategy)
solve_neumann_pinned(compat_policy)
solve_neumann_pinned(node)
solve_neumann_pinned(value)
""".split()


def _defaulted(fn, prefix):
    return [f"{prefix}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def _settable():
    out = []
    for name in neumann_lab.__all__:
        obj = getattr(neumann_lab, name)
        if inspect.isfunction(obj):
            out += _defaulted(obj, name)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                out += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                        if not f.name.startswith("_")
                        and (f.default is not dataclasses.MISSING
                             or f.default_factory is not dataclasses.MISSING)]
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)       # class- and staticmethods
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out += _defaulted(fn, f"{name}.{attr}")
    return sorted(out)


def test_every_settable_public_value_is_listed():
    assert len(SETTABLE) == 46
    assert _settable() == SETTABLE
