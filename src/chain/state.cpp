#include "chain/state.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "chain/validation.h"
#include "obs/obs.h"
#include "crypto/keccak.h"

namespace zl::chain {

ContractFactory& ContractFactory::instance() {
  static ContractFactory factory;
  return factory;
}

void ContractFactory::register_type(const std::string& name, Maker maker) {
  makers_[name] = std::move(maker);
}

std::unique_ptr<Contract> ContractFactory::create(const std::string& name) const {
  const auto it = makers_.find(name);
  if (it == makers_.end()) throw std::invalid_argument("ContractFactory: unknown type " + name);
  return it->second();
}

bool ContractFactory::knows(const std::string& name) const { return makers_.contains(name); }

Hash32 snark_verify_cache_key(const snark::VerifyingKey& vk, const std::vector<Fr>& statement,
                              const snark::Proof& proof) {
  Bytes key_bytes = vk.to_bytes();
  for (const Fr& s : statement) {
    const Bytes b = s.to_bytes();
    key_bytes.insert(key_bytes.end(), b.begin(), b.end());
  }
  const Bytes pb = proof.to_bytes();
  key_bytes.insert(key_bytes.end(), pb.begin(), pb.end());
  return to_hash32(keccak256(key_bytes));
}

bool CallContext::snark_verify(const snark::VerifyingKey& vk, const std::vector<Fr>& statement,
                               const snark::Proof& proof) const {
  charge(GasSchedule::snark_verify_cost(4));
  const Hash32 key = snark_verify_cache_key(vk, statement, proof);
  if (const std::optional<bool> cached = snark_memo().find(key)) {
    ZL_OBS_COUNTER_ADD("validation.snark_cache.hit", 1);
    return *cached;
  }
  ZL_OBS_COUNTER_ADD("validation.snark_cache.miss", 1);
  const bool ok = snark::verify(vk, statement, proof);
  snark_memo().insert(key, ok);
  return ok;
}

void CallContext::call_contract(const Address& callee, const std::string& method,
                                const Bytes& args) const {
  charge(GasSchedule::kStorageRead);
  Contract* target = state->mutable_contract_at(callee);
  if (target == nullptr) throw ContractRevert("call to non-contract address");
  CallContext child{callee, self, 0, block_number, gas, state, logs};
  target->invoke(child, method, args);
}

bool CallContext::transfer(const Address& to, std::uint64_t amount) const {
  charge(GasSchedule::kTransfer);
  return state->move_balance(self, to, amount);
}

std::uint64_t CallContext::self_balance() const { return state->balance_of(self); }

std::uint64_t ChainState::balance_of(const Address& addr) const {
  const auto it = accounts_.find(addr);
  return it == accounts_.end() ? 0 : it->second.balance;
}

std::uint64_t ChainState::nonce_of(const Address& addr) const {
  const auto it = accounts_.find(addr);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

const Contract* ChainState::contract_at(const Address& addr) const {
  const auto it = contracts_.find(addr);
  return it == contracts_.end() ? nullptr : it->second.instance.get();
}

Contract* ChainState::mutable_contract_at(const Address& addr) {
  const auto it = contracts_.find(addr);
  return it == contracts_.end() ? nullptr : it->second.instance.get();
}

bool ChainState::move_balance(const Address& from, const Address& to, std::uint64_t amount) {
  Account& src = accounts_[from];
  if (src.balance < amount) return false;
  src.balance -= amount;
  accounts_[to].balance += amount;
  return true;
}

Receipt ChainState::apply_transaction(const Transaction& tx, std::uint64_t block_number,
                                      const Address& miner) {
  if (!tx.verify_signature()) throw std::invalid_argument("tx: bad signature");
  Account& sender = accounts_[tx.from()];
  if (tx.nonce() != sender.nonce) throw std::invalid_argument("tx: bad nonce");
  // Gas price is fixed at 1 wei/gas in this simulation. Written so that
  // gas_limit + value cannot wrap uint64 past the balance check.
  if (tx.value() > sender.balance || tx.gas_limit() > sender.balance - tx.value()) {
    throw std::invalid_argument("tx: insufficient funds for gas + value");
  }
  if (tx.gas_limit() < tx.intrinsic_gas()) throw std::invalid_argument("tx: gas below intrinsic");

  sender.nonce += 1;
  sender.balance -= tx.gas_limit();  // buy gas upfront
  GasMeter gas(tx.gas_limit());

  Receipt receipt;
  // On revert we roll back the transaction's direct value transfer.
  // Contract-internal mutations follow the checks-effects discipline
  // documented in contract.h, so a reverting call has made none.
  Address value_recipient;
  std::uint64_t value_moved = 0;
  try {
    gas.charge(tx.intrinsic_gas());
    if (tx.is_contract_creation()) {
      const Address contract_addr = Address::for_contract(tx.from(), tx.nonce());
      if (contracts_.contains(contract_addr)) throw ContractRevert("address collision");
      std::unique_ptr<Contract> contract = ContractFactory::instance().create(tx.method());
      // Fund the new contract with the attached value, then run its ctor.
      if (!move_balance(tx.from(), contract_addr, tx.value())) throw ContractRevert("value");
      value_recipient = contract_addr;
      value_moved = tx.value();
      CallContext ctx{contract_addr, tx.from(), tx.value(), block_number, &gas, this, &receipt.logs};
      contract->on_deploy(ctx, tx.payload());
      contracts_[contract_addr] = Deployed{tx.method(), std::move(contract)};
      receipt.created_contract = contract_addr;
    } else if (const auto it = contracts_.find(tx.to()); it != contracts_.end()) {
      if (!move_balance(tx.from(), tx.to(), tx.value())) throw ContractRevert("value");
      value_recipient = tx.to();
      value_moved = tx.value();
      CallContext ctx{tx.to(), tx.from(), tx.value(), block_number, &gas, this, &receipt.logs};
      it->second.instance->invoke(ctx, tx.method(), tx.payload());
    } else {
      // Plain value transfer.
      if (!move_balance(tx.from(), tx.to(), tx.value())) throw ContractRevert("value");
    }
    receipt.success = true;
  } catch (const ContractRevert& e) {
    receipt.error = e.what();
  } catch (const OutOfGas&) {
    receipt.error = "out of gas";
  } catch (const std::invalid_argument& e) {
    // Deterministic execution fault inside a contract (e.g. malformed args).
    receipt.error = std::string("fault: ") + e.what();
  }
  if (!receipt.success && value_moved > 0) {
    move_balance(value_recipient, tx.from(), value_moved);
  }

  receipt.gas_used = gas.used();
  // Refund unused gas; fee to miner.
  accounts_[tx.from()].balance += gas.remaining();
  accounts_[miner].balance += receipt.gas_used;
  return receipt;
}

Bytes Receipt::to_bytes() const {
  Bytes out;
  out.push_back(success ? 1 : 0);
  append_u64_be(out, gas_used);
  append_frame(out, zl::to_bytes(error));
  append_frame(out, created_contract.to_bytes());
  append_u32_be(out, static_cast<std::uint32_t>(logs.size()));
  for (const std::string& line : logs) append_frame(out, zl::to_bytes(line));
  return out;
}

Receipt Receipt::from_bytes(const Bytes& bytes) {
  // The log count used to feed reserve() unchecked, so a 4-byte prefix of
  // 0xffffffff in a corrupt checkpoint forced a ~128 GiB reserve before the
  // truncation throw — count() rejects it before any allocation now.
  constexpr std::size_t kMaxErrorBytes = 4096;
  constexpr std::size_t kMaxLogBytes = 1u << 16;
  constexpr std::uint32_t kMaxLogs = 1u << 16;
  Receipt r;
  ByteReader reader(bytes, "Receipt");
  r.success = reader.u8() != 0;
  r.gas_used = reader.u64();
  const Bytes error = reader.frame(kMaxErrorBytes);
  r.error.assign(error.begin(), error.end());
  r.created_contract = Address::from_bytes(reader.frame(Address::kSize));
  const std::uint32_t n_logs = reader.count(kMaxLogs);
  r.logs.reserve(n_logs);
  for (std::uint32_t i = 0; i < n_logs; ++i) {
    const Bytes line = reader.frame(kMaxLogBytes);
    r.logs.emplace_back(line.begin(), line.end());
  }
  reader.expect_end();
  return r;
}

std::optional<Bytes> ChainState::snapshot_bytes() const {
  // Collect then sort: the encoding must be byte-identical on every node, so
  // we never emit in hash-map order.
  std::vector<std::pair<Address, Account>> accounts;
  accounts.reserve(accounts_.size());
  for (const auto& [addr, acct] : accounts_) {  // zl-lint: allow(nondet-iteration)
    accounts.emplace_back(addr, acct);
  }
  std::sort(accounts.begin(), accounts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::pair<Address, const Deployed*>> contracts;
  contracts.reserve(contracts_.size());
  for (const auto& [addr, deployed] : contracts_) {  // zl-lint: allow(nondet-iteration)
    contracts.emplace_back(addr, &deployed);
  }
  std::sort(contracts.begin(), contracts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  Bytes out;
  append_u32_be(out, static_cast<std::uint32_t>(accounts.size()));
  for (const auto& [addr, acct] : accounts) {
    append_frame(out, addr.to_bytes());
    append_u64_be(out, acct.balance);
    append_u64_be(out, acct.nonce);
  }
  append_u32_be(out, static_cast<std::uint32_t>(contracts.size()));
  for (const auto& [addr, deployed] : contracts) {
    const std::optional<Bytes> state = deployed->instance->snapshot_state();
    if (!state.has_value()) return std::nullopt;  // contract opted out
    append_frame(out, addr.to_bytes());
    append_frame(out, zl::to_bytes(deployed->type));
    append_frame(out, *state);
  }
  return out;
}

ChainState ChainState::from_snapshot(const Bytes& bytes) {
  // Each account entry encodes to 40 bytes and each contract to >= 12, so
  // these count caps only fail fast — the per-iteration reads already bound
  // memory growth by the input size.
  constexpr std::uint32_t kMaxAccounts = (64u << 20) / 40;
  constexpr std::uint32_t kMaxContracts = 1u << 20;
  constexpr std::size_t kMaxTypeBytes = 256;
  constexpr std::size_t kMaxContractStateBytes = 48u << 20;
  ChainState state;
  ByteReader r(bytes, "ChainState snapshot");
  const std::uint32_t n_accounts = r.count(kMaxAccounts);
  for (std::uint32_t i = 0; i < n_accounts; ++i) {
    const Address addr = Address::from_bytes(r.frame(Address::kSize));
    Account acct;
    acct.balance = r.u64();
    acct.nonce = r.u64();
    state.accounts_[addr] = acct;
  }
  const std::uint32_t n_contracts = r.count(kMaxContracts);
  for (std::uint32_t i = 0; i < n_contracts; ++i) {
    const Address addr = Address::from_bytes(r.frame(Address::kSize));
    const Bytes type_bytes = r.frame(kMaxTypeBytes);
    const std::string type(type_bytes.begin(), type_bytes.end());
    const Bytes contract_state = r.frame(kMaxContractStateBytes);
    std::unique_ptr<Contract> instance = ContractFactory::instance().create(type);
    instance->restore_state(contract_state);
    state.contracts_[addr] = Deployed{type, std::move(instance)};
  }
  r.expect_end();
  return state;
}

}  // namespace zl::chain
