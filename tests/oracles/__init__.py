"""Reference implementations that tests hold production code against.

Each production computation has one path in ``src/``; the independent
implementations it is checked against live here, one module per layer:

* ``circuit`` — per-point Brent and scan paths of the circuit kernels:
  ``vtc`` (``Inverter.vtc``), ``noise_margins``, ``butterfly_snm``,
  ``read_vtc`` / ``hold_snm`` / ``read_snm`` (``repro.circuit.snm`` and
  ``repro.circuit.sram``), ``find_vmin`` / ``minimum_energy_point``
  (``repro.circuit.energy``, ``InverterChain``) and ``dvs_curve``
  (``repro.circuit.dvs``);
* ``mna`` — ``solve_dc`` / ``solve_transient``: every lane through the
  scalar ``NodalSolver``, in the signatures of
  ``repro.circuit.mna_batch.solve_dc_batch`` /
  ``solve_transient_batch``, which tests swap in for the array studies
  of ``repro.circuit.sram_array`` and ``repro.circuit.gate_netlists``;
* ``scaling`` — brentq doping solves of the scaling flows:
  ``SuperVthOptimizer`` and ``build_super_vth_*``
  (``repro.scaling.supervth``), ``optimize_doping_for_length``,
  ``SubVthOptimizer`` and ``build_sub_vth_family``
  (``repro.scaling.subvth``), ``derive_flavours``
  (``repro.scaling.multivth``) and ``headline_under_calibration``
  (``repro.scaling.sensitivity``);
* ``tcad`` — ``SequentialDeviceSimulator``: ``DeviceSimulator`` with
  warm-started scalar Poisson sweeps in place of the batched kernel;
* ``moscap`` — the numeric quasi-static C-V that pins the compact
  model's weak-inversion gate capacitance
  (``repro.device.capacitance``).
"""
