"""Two fluids, one storm: pathwise uniqueness under common noise.

Feeding the identical noise stream to two copies of the dynamics from the
same initial state keeps them bitwise together forever.  Separating the
starts by a tiny epsilon instead, the gap can only grow inside an
exponential envelope driven by the gradient of the reference solution,
with the exponent 2p/(2p - d) on its L_p norm.
"""

from splf import diagnostics as dg
from splf import integrator as it
from splf import noise

config = it.SimConfig(
    d=2, p=2.0, nu=0.01, n=2, dt=1e-3, T=0.05, n_paths=1, seed=777,
    init=it.GaussianInit(sigma=5.0, decay=1.0),
    gamma=noise.PowerLawSpectrum(c=1e-6, s=3.0),
    stepper="euler_maruyama", record_every=1)

print("exact branch: identical data, identical noise")
sep = dg.identical_noise_separation(config, [0])
print(f"  max ||Z_t||_2 = {sep:.2e}  (deterministic map: zero to roundoff)\n")

print("perturbed branch: epsilon = 1e-3 initial separation")
report = dg.gronwall_experiment(config, eps=1e-3, n_calibration=32,
                                n_validation=10, margin=0.5)
print(f"  envelope exponent 2p/(2p-d) = {report.exponent}")
print(f"  calibrated constant = {report.c_hat:.4f}")
print(f"  validation pairs holding the envelope: "
      f"{report.pairs_ok}/{report.n_validation}")

worst = report.worst
print("\nseparation along the most stressed validation pair:")
for k in range(0, len(worst.times), 10):
    print(f"  t = {worst.times[k]:.3f}: ||Z||^2 = {worst.sep_sq[k]:.3e}  "
          f"envelope = {worst.envelope[k]:.3e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(worst.times, worst.sep_sq, label="||Z_t||^2")
    ax.semilogy(worst.times, worst.envelope, "--", label="Gronwall envelope")
    ax.set_xlabel("t")
    ax.legend()
    ax.set_title("separation under common noise stays enveloped")
    fig.tight_layout()
    fig.savefig("demo05_uniqueness.png", dpi=120)
    print("\nwrote demo05_uniqueness.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
