#include "storage/database.h"

#include <algorithm>
#include <utility>

#include "plan/stats.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace seprec {

namespace {

Status CheckArity(const Relation& rel, size_t arity) {
  if (rel.arity() == arity) return Status::OK();
  return InvalidArgumentError(StrCat("relation '", rel.name(),
                                     "' already exists with arity ",
                                     rel.arity(), ", requested ", arity));
}

}  // namespace

Database::Database()
    : owned_(std::make_unique<Shared>()), shared_(owned_.get()) {
  shared_->stats = std::make_unique<StatsCatalog>();
}

Database::Database(Database* base) : base_(base), shared_(base->shared_) {}

Database::~Database() {
  if (base_ == nullptr) return;
  for (const auto& [name, rel] : relations_) {
    shared_->stats->Forget(rel.get());
  }
}

StatusOr<Relation*> Database::CreateRelation(std::string_view name,
                                             size_t arity) {
  auto it = relations_.find(std::string(name));
  if (it != relations_.end()) {
    SEPREC_RETURN_IF_ERROR(CheckArity(*it->second, arity));
    return it->second.get();
  }
  const Relation* shadowed = base_ != nullptr ? base_->Find(name) : nullptr;
  if (shadowed != nullptr) {
    SEPREC_RETURN_IF_ERROR(CheckArity(*shadowed, arity));
  }
  auto relation = std::make_unique<Relation>(std::string(name), arity);
  Relation* ptr = relation.get();
  ptr->SetAccountant(&shared_->accountant);
  ptr->SetCounters(&shared_->counters);
  if (shadowed != nullptr) ptr->InsertAll(*shadowed);
  relations_.emplace(std::string(name), std::move(relation));
  return ptr;
}

Relation* Database::Find(std::string_view name) {
  auto it = relations_.find(std::string(name));
  if (it != relations_.end()) return it->second.get();
  return base_ != nullptr ? base_->Find(name) : nullptr;
}

const Relation* Database::Find(std::string_view name) const {
  auto it = relations_.find(std::string(name));
  if (it != relations_.end()) return it->second.get();
  return base_ != nullptr ? std::as_const(*base_).Find(name) : nullptr;
}

StatusOr<Relation*> Database::Bind(std::string_view name, size_t arity) {
  if (Relation* rel = Find(name); rel != nullptr) {
    SEPREC_RETURN_IF_ERROR(CheckArity(*rel, arity));
    return rel;
  }
  Database* root = this;
  while (root->base_ != nullptr) root = root->base_;
  return root->CreateRelation(name, arity);
}

void Database::ClearLocal(bool reload) {
  SEPREC_CHECK(base_ != nullptr);
  for (const auto& [name, rel] : relations_) {
    rel->Clear();
    if (!reload) continue;
    if (const Relation* shadowed = base_->Find(name); shadowed != nullptr) {
      rel->InsertAll(*shadowed);
    }
  }
}

void Database::CommitToBase() {
  SEPREC_CHECK(base_ != nullptr);
  for (auto it = relations_.begin(); it != relations_.end();) {
    if (it->first.starts_with("$")) {
      ++it;
      continue;
    }
    auto target = base_->relations_.find(it->first);
    if (target == base_->relations_.end()) {
      base_->relations_.emplace(it->first, std::move(it->second));
    } else {
      target->second->InsertAll(*it->second);
      shared_->stats->Forget(it->second.get());
    }
    it = relations_.erase(it);
  }
}

Status Database::AddFact(std::string_view relation,
                         std::initializer_list<std::string_view> symbols) {
  SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                          CreateRelation(relation, symbols.size()));
  std::vector<Value> row;
  row.reserve(symbols.size());
  for (std::string_view s : symbols) {
    row.push_back(shared_->symbols.Intern(s));
  }
  // Bump only when the row was genuinely new: a duplicate fact leaves the
  // stored data untouched, and generation-keyed caches (the query
  // service's closure cache) must survive no-op mutations.
  if (rel->Insert(Row(row.data(), row.size()))) BumpGeneration();
  return Status::OK();
}

Status Database::AddFact(std::string_view relation,
                         const std::vector<std::string>& symbols) {
  SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                          CreateRelation(relation, symbols.size()));
  std::vector<Value> row;
  row.reserve(symbols.size());
  for (const std::string& s : symbols) {
    row.push_back(shared_->symbols.Intern(s));
  }
  if (rel->Insert(Row(row.data(), row.size()))) BumpGeneration();
  return Status::OK();
}

void Database::Drop(std::string_view name, bool bump_generation) {
  auto it = relations_.find(std::string(name));
  if (it == relations_.end()) return;
  shared_->stats->Forget(it->second.get());
  relations_.erase(it);
  if (bump_generation && !name.starts_with("$")) {
    // Dropping user-visible data invalidates derived caches; scratch
    // relations ('$'-prefixed) come and go with every evaluation and
    // never feed a cache key.
    BumpGeneration();
  }
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

StatsCatalog& Database::stats() { return *shared_->stats; }

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    total += rel->size();
  }
  return total;
}

}  // namespace seprec
