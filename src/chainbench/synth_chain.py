"""Deterministic generator of ledger-shaped datasets with configurable skew.

Stands in for bulk exports of real chain data at desk scale: one seeded PRNG
drives every choice, so equal configs produce byte-identical datasets. Hot
senders, receivers, and tokens follow Zipf-ranked popularity; per-sender
nonces are consecutive; transfer values are capped by the sender's running
balance so no balance ever goes negative.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

from .chain_model import (
    AddressRow,
    Block,
    ChainDataset,
    Contract,
    Token,
    TokenTransaction,
    Transaction,
    Withdrawal,
)

_SYLLABLES = (
    "vel", "mor", "tan", "qui", "zor", "lim", "pax", "dru",
    "fen", "gal", "hex", "ilo", "jun", "kra", "nym", "oss",
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_blocks: int = 100
    start_number: int = 0
    start_timestamp: int = 1_700_000_000
    block_interval: int = 12
    mean_tx_per_block: int = 100
    address_pool: int = 500
    address_zipf_s: float = 1.1
    n_tokens: int = 40
    token_zipf_s: float = 1.0
    token_tx_prob: float = 0.6
    contract_fraction: float = 0.2
    withdrawal_rate: float = 2.0
    initial_balance: int = 10**21
    # Fraction of token names carrying the "US" substring, and of tokens with
    # zero total supply (keeps substring and division predicates non-degenerate).
    us_name_fraction: float = 0.10
    zero_supply_fraction: float = 0.01
    # Senders start from a prior-history nonce offset (log-uniform up to this
    # bound, 30% start at zero), as they would in a mid-chain extraction.
    nonce_offset_max: int = 10_000_000
    # Optional distribution shift: when drift is nonzero, per-transfer token
    # value magnitudes (log10) are drawn from N(mu0 + drift * block_offset, 1)
    # instead of the stationary log-uniform default.
    token_value_drift: float = 0.0
    token_value_mu0: float = 9.5

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        for name in ("mean_tx_per_block", "address_pool", "n_tokens", "initial_balance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("token_tx_prob", "contract_fraction", "us_name_fraction", "zero_supply_fraction"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.address_zipf_s < 0 or self.token_zipf_s < 0:
            raise ValueError("zipf exponents must be >= 0")
        if self.withdrawal_rate < 0:
            raise ValueError("withdrawal_rate must be >= 0")


class ZipfSampler:
    """Rank-weighted sampler: P(rank k) proportional to 1 / (k+1)**s."""

    def __init__(self, n: int, s: float):
        self.cum: list[float] = []
        total = 0.0
        for k in range(n):
            total += 1.0 / (k + 1) ** s
            self.cum.append(total)

    def sample(self, rng: random.Random, prefix: int | None = None) -> int:
        hi = len(self.cum) if prefix is None else prefix
        r = rng.random() * self.cum[hi - 1]
        return bisect.bisect_left(self.cum, r, 0, hi)


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> int:
    return int(10 ** rng.uniform(lo_exp, hi_exp))


def _unique_bytes(rng: random.Random, n: int, seen: set[bytes]) -> bytes:
    while True:
        value = rng.randbytes(n)
        if value not in seen:
            seen.add(value)
            return value


def generate(cfg: SynthConfig) -> ChainDataset:
    """Produce a dataset for ``cfg``; equal configs yield identical datasets."""
    rng = random.Random(cfg.seed)

    addr_seen: set[bytes] = set()
    pool = [_unique_bytes(rng, 20, addr_seen) for _ in range(cfg.address_pool)]
    pool_index = {addr: i for i, addr in enumerate(pool)}
    addr_zipf = ZipfSampler(len(pool), cfg.address_zipf_s) if pool else None

    last_number = cfg.start_number + cfg.n_blocks - 1
    hash_seen: set[bytes] = set()
    blocks: list[Block] = []
    for i in range(cfg.n_blocks):
        blocks.append(
            Block(
                hash=_unique_bytes(rng, 32, hash_seen),
                number=cfg.start_number + i,
                timestamp=cfg.start_timestamp + i * cfg.block_interval,
                extra_data=rng.randbytes(rng.randrange(0, 9)),
                base_fee_per_gas=_log_uniform(rng, 9, 11),
                size=rng.randrange(20_000, 200_000),
                miner=pool[rng.randrange(len(pool))],
            )
        )
    hash_by_number = {b.number: b.hash for b in blocks}

    n_contracts = round(cfg.contract_fraction * len(pool))
    contract_addrs = sorted(rng.sample(range(len(pool)), n_contracts)) if n_contracts else []
    contracts: list[Contract] = []
    erc20_addrs: list[bytes] = []
    for idx in contract_addrs:
        addr = pool[idx]
        creation = None
        if rng.random() < 0.8:  # 20% predate the dataset entirely
            creation = hash_by_number[cfg.start_number + rng.randrange(cfg.n_blocks)]
        is_erc20 = rng.random() < 0.5
        is_erc721 = (not is_erc20) and rng.random() < 0.3
        n_versions = 2 if rng.random() < 0.02 else 1
        for version in range(1, n_versions + 1):
            contracts.append(
                Contract(
                    address=addr,
                    version=version,
                    function_sighashes=tuple(rng.randbytes(4) for _ in range(rng.randrange(1, 6))),
                    bytecode=rng.randbytes(rng.randrange(32, 128)),
                    is_erc20=is_erc20,
                    is_erc721=is_erc721,
                    block_hash=creation,
                )
            )
        if is_erc20:
            erc20_addrs.append(addr)

    n_tokens = min(cfg.n_tokens, len(pool))
    token_addr_choices = list(erc20_addrs)
    spare = [a for a in pool if a not in set(erc20_addrs)]
    while len(token_addr_choices) < n_tokens and spare:
        token_addr_choices.append(spare.pop(rng.randrange(len(spare))))
    token_addrs = token_addr_choices[:n_tokens]

    # Tokens activate in index order: a None creation block means the token
    # predates the dataset, otherwise it is usable from its creation block on.
    creations: list[int | None] = []
    for _ in token_addrs:
        if rng.random() < 0.25:
            creations.append(None)
        else:
            creations.append(cfg.start_number + rng.randrange(cfg.n_blocks))
    creations.sort(key=lambda c: -1 if c is None else c)
    tokens: list[Token] = []
    for i, addr in enumerate(token_addrs):
        if rng.random() < 0.80:
            decimals: int | None = 18
        elif rng.random() < 0.75:
            decimals = rng.choice((6, 8, 9))
        else:
            decimals = None
        d = 18 if decimals is None else decimals
        if rng.random() < cfg.zero_supply_fraction:
            supply = 0
        else:
            supply = _log_uniform(rng, 6 + d, 12 + d)
        name = rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES) + f"-{i:03d}"
        if rng.random() < cfg.us_name_fraction:
            name = name[:3] + "US" + name[3:]
        symbol = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTVWXYZ") for _ in range(rng.randrange(3, 6)))
        creation = creations[i]
        tokens.append(
            Token(
                address=addr,
                symbol=symbol,
                name=name,
                decimals=decimals,
                total_supply=supply,
                block_hash=None if creation is None else hash_by_number[creation],
            )
        )
    token_zipf = ZipfSampler(len(tokens), cfg.token_zipf_s) if tokens else None
    activation_numbers = [(-1 if c is None else c) for c in creations]

    balances = {addr: cfg.initial_balance for addr in pool}
    nonces: dict[bytes, int] = {}
    for addr in pool:
        if cfg.nonce_offset_max <= 0 or rng.random() < 0.3:
            nonces[addr] = 0
        else:
            nonces[addr] = int(10 ** rng.uniform(0, math.log10(cfg.nonce_offset_max)))
    transactions: list[Transaction] = []
    token_txs: list[TokenTransaction] = []
    withdrawals: list[Withdrawal] = []

    def token_value(block_offset: int) -> int:
        if cfg.token_value_drift:
            exp = rng.gauss(cfg.token_value_mu0 + cfg.token_value_drift * block_offset, 1.0)
            return max(0, int(10**exp))
        return _log_uniform(rng, 6, 14)

    for offset, block in enumerate(blocks):
        active = bisect.bisect_right(activation_numbers, block.number)
        log_index = 0
        for tx_index in range(_poisson(rng, cfg.mean_tx_per_block)):
            sender = pool[addr_zipf.sample(rng)]
            transfers: list[int] = []
            if token_zipf is not None and active > 0 and rng.random() < cfg.token_tx_prob:
                transfers.append(token_zipf.sample(rng, prefix=active))
                while rng.random() < 1 / 3:  # geometric tail, mean 1.5 transfers
                    transfers.append(token_zipf.sample(rng, prefix=active))
            if transfers:
                to: bytes | None = tokens[transfers[0]].address
            elif rng.random() < 0.01:
                to = None  # contract creation: no receiver, no value moved
            elif contract_addrs and rng.random() < 0.3:
                to = pool[contract_addrs[rng.randrange(len(contract_addrs))]]
            else:
                to = pool[addr_zipf.sample(rng)]
            if to is None:
                value = 0
            else:
                value = min(_log_uniform(rng, 12, 19), balances[sender])
            balances[sender] -= value
            if to is not None:
                balances[to] += value

            roll = rng.random()
            tx_type = 2 if roll < 0.85 else (0 if roll < 0.95 else 1)
            prio = _log_uniform(rng, 8, 10) if tx_type == 2 else None
            if to is None:
                payload = rng.randbytes(rng.randrange(100, 300))
            elif transfers or rng.random() < 0.2:
                payload = rng.randbytes(4 + 32 * rng.randrange(0, 3))
            else:
                payload = b""

            tx_hash = _unique_bytes(rng, 32, hash_seen)
            nonce = nonces[sender]
            nonces[sender] = nonce + 1
            transactions.append(
                Transaction(
                    hash=tx_hash,
                    transaction_index=tx_index,
                    value=value,
                    from_address=sender,
                    to_address=to,
                    gas=rng.randrange(21_000, 1_000_000),
                    max_priority_fee_per_gas=prio,
                    input=payload,
                    block_hash=block.hash,
                    transaction_type=tx_type,
                    nonce=nonce,
                )
            )
            for tok_idx in transfers:
                token_txs.append(
                    TokenTransaction(
                        transaction_hash=tx_hash,
                        log_index=log_index,
                        token_address=tokens[tok_idx].address,
                        value=token_value(offset),
                    )
                )
                log_index += 1

        for w_index in range(_poisson(rng, cfg.withdrawal_rate)):
            addr = pool[addr_zipf.sample(rng)]
            amount = _log_uniform(rng, 15, 18)
            balances[addr] += amount
            withdrawals.append(
                Withdrawal(
                    hash=block.hash,
                    withdrawal_index=w_index,
                    validator=pool_index[addr],
                    address=addr,
                    amount=amount,
                )
            )

    return ChainDataset(
        blocks=tuple(blocks),
        addresses=tuple(AddressRow(addr, balances[addr]) for addr in pool),
        transactions=tuple(transactions),
        contracts=tuple(contracts),
        tokens=tuple(tokens),
        token_transactions=tuple(token_txs),
        withdrawals=tuple(withdrawals),
        final_balances=dict(balances),
        final_block=last_number,
    )
