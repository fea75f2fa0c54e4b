"""gyrofde: gyroscope noise/drift -> aircraft position-error budgets.

Closed-form along-track / cross-track / fix-displacement error expressions,
Allan-deviation analysis and drift identification, seeded Monte-Carlo flight
validation, and requirement trade-study solvers.
"""

__version__ = "0.1.0"
