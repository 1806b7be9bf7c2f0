"""Abstract matches: do learned or scripted policies actually win games?

No unit positioning here, just macro: income per worker, legality checks,
and an army-value comparison at regular combat checks. A side wins by
fielding 1.5x the opponent's army value (once past a minimum size).

python3 demos/07_abstract_matches.py   (a few seconds)
"""

from macronet import (
    DecisionPolicy,
    Mode,
    NetworkPlayer,
    ReactiveScript,
    TrainConfig,
    build_dataset,
    default_exclusions,
    generate_synthetic_corpus,
    load_default_catalog,
    load_default_norms,
    run_matches,
    simulate_match,
    train,
    worker_only_player,
    worker_then_army_player,
)

catalog = load_default_catalog()
norms = load_default_norms(catalog)

# Pure economy loses to economy-then-army, every time.
result = simulate_match(
    worker_only_player(catalog), worker_then_army_player(catalog), catalog, seed=1
)
winner = {"A": "worker-only", "B": "worker-then-army"}[result.winner.value]
print(f"worker-only vs worker-then-army: {winner} wins at frame {result.end_frame}")
print("army value at the last few combat checks (A vs B):")
for (fa, va), (_, vb) in list(zip(result.army_curve_a, result.army_curve_b))[-4:]:
    print(f"  frame {fa:>5}: {va:>5} vs {vb:>5}")
print()

# Identical deterministic players cannot diverge, so self-play draws.
army = worker_then_army_player(catalog)
result = simulate_match(army, army, catalog, seed=2)
print(f"self-play: {result.winner.value} at frame cap {result.end_frame}")
print()

# Now a learned player. Train briefly on reactive-script games and let the
# network choose probabilistically with the stock exclusions.
print("training a network player...")
logs = generate_synthetic_corpus(ReactiveScript(catalog), 120, seed=9)
dataset = build_dataset(logs, catalog, norms)
model, _ = train(dataset, TrainConfig(epochs=6, seed=0))
net_player = NetworkPlayer(
    name="learned",
    net=model,
    policy=DecisionPolicy(
        mode=Mode.PROBABILISTIC, exclusions=default_exclusions(catalog)
    ),
    catalog=catalog,
    norms=norms,
)

for opponent, seed in ((worker_only_player(catalog), 100), (army, 200)):
    series = run_matches(net_player, opponent, catalog, n_matches=10, seed=seed)
    print(f"learned vs {opponent.name + ':':<18} {series.wins_a} wins, "
          f"{series.wins_b} losses, {series.draws} draws  ({series.n} matches)")
