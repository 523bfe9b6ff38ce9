# Imported before any test module loads numpy, so that the test process
# runs one BLAS thread as the patrolsim commands do (see patrolsim/__init__).
import patrolsim  # noqa: F401
