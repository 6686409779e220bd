"""Run-time code generation (the paper's Sec. 8 outlook, via LL94).

``generate(gp, goal, static_args)`` specialises ``goal`` with respect to
the static arguments and immediately compiles the residual program to
Python, returning a callable over the dynamic arguments.  This is the
lightweight-RTCG workflow: the expensive preparation (analysis, cogen)
happened once per module, long before; code generation at run time is
just running the generating extensions plus one ``compile()``.

Repeated ``generate`` calls for the same request are the common case
when residual callables back a service (one compiled ``power_3`` serves
every user who asks for cubes).  ``generate`` is therefore a view of
the execution ladder's tier-2 rung (:meth:`TierLadder.compiled
<repro.backend.tiers.TierLadder.compiled>`): the callable lives in the
request's entry of the residual store (:data:`repro.speccache.STORE`),
keyed by :func:`repro.speccache.residual_cache_key`, so a repeated
request — or a ladder that already promoted the same key — is one dict
probe (``tier.memo_hits``) and skips both the specialisation run and
the ``compile()``.  Runs with a ``sink`` or over an unfingerprinted
program have no key and always compile afresh.
"""

from repro.backend.tiers import TierLadder, _compile_result
from repro.genext.engine import specialise


def generate(gp, goal, static_args=None, options=None, obs=None):
    """Specialise and compile in one step; returns the
    :class:`~repro.backend.tiers.TierFunction` for ``goal``.

    >>> import repro
    >>> from repro.backend import generate
    >>> gp = repro.compile_genexts('''
    ... module Power where
    ...
    ... power n x = if n == 1 then x else x * power (n - 1) x
    ... ''')
    >>> cube = generate(gp, "power", {"n": 3})
    >>> cube(5)
    125
    """
    from repro.api import spec_options

    options = spec_options("generate", options)
    if options.sink is not None:
        # A streamed run has no cached identity: compile it afresh.
        result = specialise(gp, goal, static_args, options, obs=obs)
        return _compile_result(result, obs=obs)[0]
    return TierLadder(gp, options=options, obs=obs).compiled(goal, static_args)
