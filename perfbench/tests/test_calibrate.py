import calibrate
from run import host_scale


def test_host_scale_cancels_a_step_in_host_speed():
    cals = [0.5 * calibrate.REFERENCE_S] * 10 + [calibrate.REFERENCE_S] * 10
    walls = [0.05] * 10 + [0.1] * 10
    scaled = [w * f for w, f in zip(walls, host_scale(cals))]
    assert scaled == [0.1] * 20


def test_host_scale_ignores_a_lone_slow_calibration():
    cals = [calibrate.REFERENCE_S] * 9
    cals[4] *= 5.0
    assert host_scale(cals) == [1.0] * 9


def test_kernel_is_deterministic():
    assert calibrate.kernel() == calibrate.kernel()
