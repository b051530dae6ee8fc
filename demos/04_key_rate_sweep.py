"""Secret key rate versus SNR, and what pilot reuse buys per pilot slot.

Computes the per-round key rate of one user under complete-grid probing and
under reduced probing with 6 selected beams, then the multi-user per-slot
rates that make pilot reuse worthwhile.  Uses small trial counts so it runs
in seconds; the beamkey CLI runs the full configurations.

Run:  python demos/04_key_rate_sweep.py
"""

import collections

from beamkey import ScenarioConfig, run_multiuser_unit_rate, run_single_user_rate

single = ScenarioConfig(users=1, trials=10, seed=1, snr_db_grid=[0, 10, 20, 30])
table = run_single_user_rate(single).tables["single_user_rate"]  # column name -> values
by_snr = collections.defaultdict(dict)
for snr, scheme, rate in zip(table["snr_db"], table["scheme"], table["rate_bits"]):
    by_snr[snr][scheme] = rate

print("single user, 128 BS antennas, mean over 10 channel draws")
print("snr_db   rate(complete)  rate(6 beams)  rate(4 beams)   [bits/round]")
for snr in sorted(by_snr):
    d = by_snr[snr]
    print(f"{snr:6.0f}   {d['perfect']:14.3f}  {d['reduced_me6']:13.3f}  "
          f"{d['reduced_me4']:13.3f}")

multi = ScenarioConfig(trials=10, seed=1, snr_db_grid=[0, 10, 20, 30])
table = run_multiuser_unit_rate(multi).tables["multiuser_unit_rate"]
by_snr = collections.defaultdict(dict)
for snr, scheme, unit_rate, overhead in zip(table["snr_db"], table["scheme"],
                                            table["unit_rate"], table["overhead"]):
    by_snr[snr][scheme] = (unit_rate, overhead)

print("\nsix users, sum rate per pilot slot")
print("snr_db   reused m_e=6   reused m_e=4   orthogonal   [bits/round/slot]")
for snr in sorted(by_snr):
    d = by_snr[snr]
    print(f"{snr:6.0f}   {d['reused_me6'][0]:12.4f}   {d['reused_me4'][0]:12.4f}   "
          f"{d['orthogonal'][0]:10.4f}")
ovh = {s: d[1] for s, d in by_snr[max(by_snr)].items()}
print(f"\npilot overheads: reused m_e=6 -> {ovh['reused_me6']} slots, "
      f"m_e=4 -> {ovh['reused_me4']}, orthogonal -> {ovh['orthogonal']}")
