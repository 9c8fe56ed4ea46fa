"""The benchmark's workloads, as the config text a user would write.

``trials`` is one sweep's trial count per SNR point, sized so a sweep
takes a few tenths of a second on a 2-vCPU 2.1 GHz Xeon VM.  The seed is
appended as ``master_seed``.  Kept free of imports so the launcher can
read it without loading numpy.
"""

WORKLOADS = {
    # The acceptance-sweep scenario: every layer runs, including waveform
    # synthesis, and max_cfo = 0.1 wraps codes at the acquisition edge.
    "waveform_k3": (
        "num_users = 3\nmax_cfo = 0.1\nmode = waveform\nsnr_list_db = 0, 10, 20\ntrials = 30\n"
    ),
    # Same scenario in model mode: bypasses the waveform transmit/receive
    # path, so the receiver (EVD and ESPRIT) dominates.
    "model_k3": (
        "num_users = 3\nmax_cfo = 0.1\nmode = model\nsnr_list_db = 0, 10, 20\ntrials = 30\n"
    ),
    # An empty ranging slot: MDL decides each trial, ESPRIT and synthesis
    # per user almost never run, so per-trial fixed cost dominates.
    "idle_model": "num_users = 0\nmax_cfo = 0.1\nmode = model\nsnr_list_db = 0\ntrials = 250\n",
}
