import importlib
import pkgutil

import pytest

import hardydirac

MODULES = sorted(m.name for m in pkgutil.iter_modules(hardydirac.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"hardydirac.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_quadrature_reached_through_its_exported_name(monkeypatch):
    # bench/tracer.py times the quadrature layer by replacing the attribute
    # integrate_radial in each module that holds it, so every caller must
    # reach the one routine through that name; the element forms' composite
    # rule comes from the same adaptive core
    from hardydirac import channels, extension, numerics, potentials, verify
    from hardydirac.channels import SpinorField, exp_profile

    # one quadrature routine, and no result class beside its error
    assert [name for name in dir(numerics) if name.startswith("integrate")] == ["integrate_radial"]
    assert [name for name in dir(numerics) if name.startswith("Quad")] == ["QuadratureError"]
    original, seen = numerics.integrate_radial, []
    for module in (potentials, channels):
        assert module.integrate_radial is original

        def wrapper(f, *args, _name=module.__name__, **kwargs):
            seen.append(_name)
            return original(f, *args, **kwargs)

        monkeypatch.setattr(module, "integrate_radial", wrapper)

    pair = potentials.parse_pair("mshell:0.5,0.5@2 + coulomb:0.3", "coulomb:1")
    field = SpinorField.single(0, exp_profile(0, 1.0))
    potentials._a_exponent_cached.cache_clear()
    verify._lhs_cached.cache_clear()
    potentials.a_plus(pair)
    assert seen and set(seen) == {"hardydirac.potentials"}
    seen.clear()
    verify.verify_theorem(pair, field, 0.5)
    assert "hardydirac.channels" in seen
    seen.clear()
    verify.mollified_delta_experiment(1.0, 0.25, 2.0, [0.8], field)
    assert seen and set(seen) == {"hardydirac.channels"}
    seen.clear()
    # extremizing reaches no quadrature through potentials or channels (the
    # constants were computed above): its forms come from the element grid,
    # and their one rule for the mollified shell from numerics' adaptive core,
    # none of whose panel tables extension holds
    assert extension._adaptive is numerics._adaptive
    cores = []

    def core(f, edges, breakpoints, rule=None):
        cores.append(rule is not None)
        return numerics._adaptive(f, edges, breakpoints, rule)

    monkeypatch.setattr(extension, "_adaptive", core)
    extension.extremize_ratio(pair, 0.5, k_set=(0,))
    assert not seen and cores == [True]
    assert not {"_NODES", "_RULES", "_ROUNDOFF"} & set(vars(extension))
