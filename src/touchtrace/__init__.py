"""Finger-worn optical + inertial touch input pipeline.

Subsystems:

* :mod:`touchtrace.geom` - quaternion/vector algebra and plane bases
* :mod:`touchtrace.protocol` - binary sensor-frame wire format and decoder
* :mod:`touchtrace.orientation` - quaternion EKF fusing gyro/accel/mag
* :mod:`touchtrace.gestures` - contact / tap / double-tap / press detection
* :mod:`touchtrace.interaction` - plane derivation, translation projection,
  stroke rotation, ray-cast selection
* :mod:`touchtrace.simulate` - ground-truth trajectory and sensor synthesis
* :mod:`touchtrace.evaluate` - error metrics, aggregation and one-way ANOVA
* :mod:`touchtrace.pipeline` - decode -> filter -> gestures -> pointer glue
* :mod:`touchtrace.cli` - the ``touchtrace`` command line tool
"""

__version__ = "0.1.0"
