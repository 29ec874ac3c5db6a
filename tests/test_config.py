import pytest

from ebmvar import config as cf
from ebmvar.errors import ConfigError
from ebmvar.spatial_model import Grid2D

GRID = Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=4)

MODEL = """
[model]
beta_min = 0.38
beta_max = 0.70
T_l = 263.0
T_u = 300.0
r0 = 0.0
r1 = 2.0
Q = 100.0
lambda = 510.0
tau = 0.00273972602739726
"""


def _load(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return cf.load_config(path)


class TestLoadConfig:
    def test_model_section(self, tmp_path):
        cfg = _load(tmp_path, MODEL)
        p = cf.model_params(cfg)
        assert p.Q == 100.0
        assert p.lam == 510.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            cf.load_config(tmp_path / "absent.ini")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            _load(tmp_path, "[mystery]\nx = 1\n")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            _load(tmp_path, MODEL + "\n[sim]\ndt = 0.1\nn_steps = 1\nn_paths = 1\nwat = 2\n")

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key"):
            _load(tmp_path, "[grid]\nLx = 1.0\nLy = 1.0\nNx = 4\n")

    def test_unparsable_value(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            _load(tmp_path, "[grid]\nLx = one\nLy = 1.0\nNx = 4\nNy = 4\n")

    def test_output_section_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            _load(tmp_path, "[output]\ndirectory = out\n")

    def test_sweep_step_key_is_unknown(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            _load(tmp_path, "[sweep]\nlambda_min = 1.0\nlambda_max = 2.0\n"
                            "n_points = 3\nh = 0.1\n")

    def test_missing_section_on_access(self, tmp_path):
        cfg = _load(tmp_path, MODEL)
        with pytest.raises(ConfigError, match="missing required config section"):
            cfg.section("grid")


class TestSectionBuilders:
    def test_sim_defaults_and_override(self, tmp_path):
        cfg = _load(tmp_path, "[sim]\ndt = 0.1\nn_steps = 10\nn_paths = 2\nseed = 7\n")
        s = cf.sim_config(cfg)
        assert s.seed == 7
        assert s.scheme == "euler-maruyama"
        assert cf.sim_config(cfg, seed_override=99).seed == 99

    def test_boundary_constant(self, tmp_path):
        cfg = _load(tmp_path, "[boundary]\ntheta = 280.0\n")
        bd = cf.boundary_config(cfg)
        assert bd.left == bd.top == 280.0

    def test_boundary_edges(self, tmp_path):
        cfg = _load(tmp_path,
                    "[boundary]\nleft = 1.0\nright = 2.0\nbottom = 3.0\ntop = 4.0\n")
        bd = cf.boundary_config(cfg)
        assert (bd.left, bd.right, bd.bottom, bd.top) == (1.0, 2.0, 3.0, 4.0)

    def test_boundary_mixed_rejected(self, tmp_path):
        cfg = _load(tmp_path, "[boundary]\ntheta = 280.0\nleft = 1.0\n")
        with pytest.raises(ConfigError, match="not both"):
            cf.boundary_config(cfg)

    def test_boundary_incomplete_rejected(self, tmp_path):
        cfg = _load(tmp_path, "[boundary]\nleft = 1.0\n")
        with pytest.raises(ConfigError, match="missing edges"):
            cf.boundary_config(cfg)

    def test_noise_exponential_needs_length(self, tmp_path):
        cfg = _load(tmp_path, "[noise]\nkernel = exponential\n")
        with pytest.raises(ConfigError, match="length"):
            cf.noise_covariance(cfg, GRID)

    @pytest.mark.parametrize("variance", ["0.0", "-1.0"])
    def test_noise_variance_must_be_positive(self, tmp_path, variance):
        cfg = _load(tmp_path, f"[noise]\nkernel = identity\nvariance = {variance}\n")
        with pytest.raises(ConfigError, match="variance"):
            cf.noise_covariance(cfg, GRID)

    @pytest.mark.parametrize("length", ["0.0", "-0.5"])
    def test_noise_length_must_be_positive(self, tmp_path, length):
        cfg = _load(tmp_path, f"[noise]\nkernel = exponential\nlength = {length}\n")
        with pytest.raises(ConfigError, match="length"):
            cf.noise_covariance(cfg, GRID)

    def test_noise_unknown_kernel(self, tmp_path):
        cfg = _load(tmp_path, "[noise]\nkernel = matern\n")
        with pytest.raises(ConfigError, match="unknown kernel"):
            cf.noise_covariance(cfg, GRID)

    def test_sweep_grid(self, tmp_path):
        cfg = _load(tmp_path,
                    "[sweep]\nlambda_min = 1.0\nlambda_max = 2.0\nn_points = 3\n")
        grid = cf.sweep_grid(cfg)
        assert list(grid) == [1.0, 1.5, 2.0]

    def test_invalid_model_values(self, tmp_path):
        bad = MODEL.replace("r1 = 2.0", "r1 = -2.0")
        with pytest.raises(ConfigError):
            cf.model_params(_load(tmp_path, bad))
