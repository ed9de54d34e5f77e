"""The benchmark's workloads and the configuration documents they run.

Each workload is one `simulate` configuration document plus a worker
count. The document starts from the program's own default document and
pins every key the workload depends on, so a later change to a default
cannot silently change what is measured. The workload seed becomes the
document's `seed` key; nothing else about the inputs is random.
"""

from dataclasses import dataclass

METHODS = "max_rp, max_wfrp, max_rp_zfc, max_sjnr"

# The paper's scenario (8 TX antennas, Bob 6 RX, a 2-antenna attacker,
# QPSK). Pinned only where the program still has the key: n_active,
# power_mallory and both noise variances are derived or overwritten per
# grid point, and may leave the document in a later version.
SYSTEM_KEYS = {
    "n_tx": "8",
    "n_active": "8",
    "n_rx": "6",
    "n_mallory": "2",
    "power": "10.0",
    "power_mallory": "1.0",
    "beta": "0.5",
    "an_var": "1.0",
    "jam_var": "1.0",
    "noise_var_bob": "1.0",
    "noise_var_eve": "1.0",
    "mod_order": "4",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    The grid and budget fields are the document's sweep keys, except
    that the document's n_ber_trials is ber_per_cell BER trials per
    (realization, grid point, method) times n_realizations.
    probe_realizations and probe_draws set the channel realizations and
    the estimates per probe of the mutual-information accuracy metric.
    reference names the workload whose outputs must be byte-identical.
    """

    name: str
    threads: int
    snr_grid_db: str
    p_m_list: str
    n_realizations: int
    n_noise: int
    ber_per_cell: int
    probe_realizations: int
    probe_draws: int = 1
    reference: str | None = None
    why: str = ""

    @property
    def n_ber_trials(self):
        return self.ber_per_cell * self.n_realizations

    def grid_cells(self):
        """Grid cells (realization x SNR x P_M x method) of one sweep."""
        return (self.n_realizations * len(self.snr_grid_db.split(","))
                * len(self.p_m_list.split(",")) * len(METHODS.split(",")))

    def tiny(self):
        """A few-second version with the same grid, for self-tests."""
        return Workload(self.name, self.threads, self.snr_grid_db,
                        self.p_m_list, n_realizations=2, n_noise=self.n_noise,
                        ber_per_cell=min(self.ber_per_cell, 20),
                        probe_realizations=1, probe_draws=1,
                        reference=self.reference,
                        why=self.why)


_SR = dict(snr_grid_db="-5.0, 0.0, 5.0", p_m_list="1.0, 10.0",
           n_realizations=6, n_noise=500, ber_per_cell=1,
           probe_realizations=30, probe_draws=2)

WORKLOADS = {
    w.name: w for w in (
        Workload("sr_sweep", threads=1, **_SR,
                 why="grid of acceptance criteria 1 and 4 at n_noise 500: "
                     "the MI kernel and MI calls dominate, BER is "
                     "negligible"),
        Workload("ber_sweep", threads=1, snr_grid_db="0.0, 5.0, 10.0",
                 p_m_list="1.0", n_realizations=1, n_noise=2,
                 ber_per_cell=2000, probe_realizations=40, probe_draws=4,
                 why="grid of acceptance criterion 5 at 2000 trials per "
                     "cell: the BER loop and codebook rebuilds dominate, "
                     "the MI kernel is idle"),
        Workload("sr_sweep_t2", threads=2, reference="sr_sweep", **_SR,
                 why="sr_sweep inputs on a 2-process pool: pool start-up, "
                     "chunking and ordered reduction, plus the "
                     "byte-identical determinism gate"),
    )
}


def config_document(default_text, workload, seed, output_dir):
    """The workload's configuration document.

    default_text is the program's default document; every line whose
    key the workload pins is rewritten, everything else is kept. A sweep
    key the program no longer accepts is an error, because the workload
    would no longer be the one named.
    """
    sweep = {
        "snr_grid_db": workload.snr_grid_db,
        "p_m_list": workload.p_m_list,
        "methods": METHODS,
        "n_realizations": str(workload.n_realizations),
        "n_noise": str(workload.n_noise),
        "n_ber_trials": str(workload.n_ber_trials),
        "an_mode": "nullspace",
        "output_dir": output_dir,
        "seed": str(int(seed)),
    }
    pinned = {**SYSTEM_KEYS, **sweep}
    seen = set()
    lines = []
    for raw in default_text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if "=" in raw.split("#", 1)[0] and key in pinned:
            lines.append(f"{key} = {pinned[key]}")
            seen.add(key)
        else:
            lines.append(raw)
    missing = sorted(set(sweep) - seen)
    if missing:
        raise ValueError(f"the default document lacks keys {missing}")
    return "\n".join(lines) + "\n"
