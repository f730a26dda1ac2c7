"""BLAS/OpenMP thread pinning for pooled backends."""

from repro.engine.threads import (
    THREAD_ENV_VARS,
    effective_blas_threads,
    pin_blas_threads,
)


class TestPinBlasThreads:
    def test_unset_vars_are_pinned(self, monkeypatch):
        for var in THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        effective = pin_blas_threads()
        assert effective == {var: "1" for var in THREAD_ENV_VARS}
        assert effective_blas_threads() == effective

    def test_user_exported_values_win(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        effective = pin_blas_threads()
        assert effective["OMP_NUM_THREADS"] == "8"
        assert effective["OPENBLAS_NUM_THREADS"] == "1"

    def test_blank_values_are_treated_as_unset(self, monkeypatch):
        for var in THREAD_ENV_VARS:
            monkeypatch.setenv(var, "  ")
        assert pin_blas_threads(2) == {var: "2" for var in THREAD_ENV_VARS}

    def test_picklable_for_pool_initializers(self):
        import pickle

        assert pickle.loads(pickle.dumps(pin_blas_threads)) is pin_blas_threads

    def test_pool_creation_pins_the_parent(self, monkeypatch):
        from repro.engine.backend import ProcessPoolBackend

        for var in THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        backend = ProcessPoolBackend(max_workers=2)
        try:
            backend.map(abs, [-1, 2, -3])
            assert effective_blas_threads() == {
                var: "1" for var in THREAD_ENV_VARS
            }
        finally:
            backend.close()
