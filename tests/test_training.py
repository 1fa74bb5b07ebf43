from bystander.envs import PRESETS
from bystander.training import RewardMode, TrainingConfig, train_adversaries, train_victims

TINY = dict(
    episodes=12,
    batch_size=4,
    buffer_capacity=64,
    hidden_size=16,
    mix_embed=8,
    eval_interval=10**6,
    eval_episodes=2,
    competence_floor=0.0,
)


def test_same_seed_estimation_attack_is_bit_identical():
    env_cfg = PRESETS["skirmish-small"]
    victims = train_victims(env_cfg, TrainingConfig(**TINY, seed=3)).policy
    cfg = TrainingConfig(
        **TINY,
        reward_mode=RewardMode.ESTIMATION,
        warmup_episodes=4,
        model_hidden=16,
        model_batch=4,
        seed=4,
    )
    first, second = (train_adversaries(env_cfg, victims, cfg) for _ in range(2))
    assert first.policy.checksum() == second.policy.checksum()
    first_model, second_model = (
        b"".join(p.values.tobytes() for p in r.reward_model.params()) for r in (first, second)
    )
    assert first_model == second_model
