#include "check/integrity_checker.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/strings.h"
#include "db/database.h"
#include "replication/link_object.h"
#include "storage/checksum.h"
#include "storage/slotted_page.h"
#include "wal/log_reader.h"

namespace fieldrep {

namespace {

// Relocation stub tags (mirrors record_file.cc; the checker validates the
// structures that file maintains, so the constants must agree).
constexpr uint16_t kForwardTag = 0xFFFF;
constexpr uint16_t kMovedTag = 0xFFFE;
constexpr uint32_t kStubBytes = 10;  // u16 tag + u64 packed OID

uint16_t CellTag(const uint8_t* cell, uint32_t size) {
  if (size < 2) return 0;
  return DecodeU16(cell);
}

}  // namespace

IntegrityChecker::IntegrityChecker(Database* db, const CheckOptions& options)
    : db_(db), options_(options) {}

bool IntegrityChecker::Full() const {
  return report_->findings.size() >= options_.max_findings;
}

Status IntegrityChecker::Run(CheckReport* report) {
  report_ = report;
  if (options_.check_storage) CheckStorage();
  if (options_.check_indexes && !Full()) CheckIndexes();
  if (options_.check_catalog && !Full()) CheckCatalog();
  if (options_.check_replication && !Full()) CheckReplication();
  if (options_.check_wal && !Full()) CheckWal();
  if (Full()) {
    report_->AddWarning(CheckLayer::kStorage, "",
                        StringPrintf("finding limit (%zu) reached; checking "
                                     "stopped early",
                                     options_.max_findings));
  }
  report_ = nullptr;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Layer 1: storage
// ---------------------------------------------------------------------------

void IntegrityChecker::CheckStorage() {
  for (const std::string& name : db_->catalog().SetNames()) {
    if (Full()) return;
    auto set = db_->GetSet(name);
    if (!set.ok()) {
      report_->AddError(CheckLayer::kStorage, name,
                        "set has no open file: " + set.status().ToString());
      continue;
    }
    CheckRecordFile(set.value()->file(), "set " + name);
  }
  for (FileId file_id : db_->AuxFileIds()) {
    if (Full()) return;
    auto file = db_->GetAuxFile(file_id);
    if (!file.ok()) continue;
    CheckRecordFile(*file.value(), StringPrintf("aux file %u", file_id));
  }
  if (!Full()) CheckDeviceChecksums();
}

void IntegrityChecker::CheckRecordFile(const RecordFile& file,
                                       const std::string& context) {
  const uint32_t device_pages = db_->pool().device()->page_count();
  // (stub oid, target) and (body oid, original) pairs for the mirror check.
  std::map<uint64_t, uint64_t> stubs;
  std::map<uint64_t, uint64_t> moved;
  std::set<PageId> visited;
  uint64_t logical_records = 0;
  uint32_t pages_seen = 0;
  PageId prev = kInvalidPageId;
  PageId current = file.first_page();

  while (current != kInvalidPageId && !Full()) {
    if (current >= device_pages) {
      report_->AddError(CheckLayer::kStorage, context,
                        "page chain points past the end of the device",
                        current);
      return;
    }
    if (!visited.insert(current).second) {
      report_->AddError(CheckLayer::kStorage, context,
                        "page chain contains a cycle", current);
      return;
    }
    PageGuard guard;
    Status fetch = db_->pool().FetchPage(current, &guard);
    if (!fetch.ok()) {
      report_->AddError(CheckLayer::kStorage, context,
                        "page unreadable: " + fetch.ToString(), current);
      return;
    }
    ++pages_seen;
    ++report_->stats.heap_pages_scanned;
    SlottedPage page(guard.data());
    if (page.page_type() != PageType::kHeap) {
      report_->AddError(
          CheckLayer::kStorage, context,
          StringPrintf("page type %u is not a heap page",
                       static_cast<uint16_t>(page.page_type())),
          current);
      return;  // header untrustworthy; stop walking this file
    }
    if (page.prev_page() != prev) {
      report_->AddError(CheckLayer::kStorage, context,
                        StringPrintf("prev-page link %u does not match the "
                                     "preceding page %u",
                                     page.prev_page(), prev),
                        current);
    }

    // Slot directory and cell bounds.
    const uint16_t slot_count = page.slot_count();
    const uint32_t directory_end =
        kPageHeaderBytes + static_cast<uint32_t>(slot_count) * 4;
    const uint16_t cell_start = page.cell_start();
    if (directory_end > cell_start || cell_start > kPageSize) {
      report_->AddError(
          CheckLayer::kStorage, context,
          StringPrintf("slot directory (%u slots, ends %u) overlaps cell "
                       "area (cell_start %u)",
                       slot_count, directory_end, cell_start),
          current);
      current = page.next_page();
      prev = guard.page_id();
      continue;
    }
    if (slot_count > 0 && page.SlotOffset(slot_count - 1) == 0) {
      report_->AddError(CheckLayer::kStorage, context,
                        "trailing slot is tombstoned (directory not trimmed)",
                        current);
    }
    uint16_t live = 0;
    uint64_t live_bytes = 0;
    std::vector<std::pair<uint16_t, uint16_t>> cells;  // (offset, length)
    for (uint16_t slot = 0; slot < slot_count && !Full(); ++slot) {
      uint16_t offset = page.SlotOffset(slot);
      if (offset == 0) continue;  // tombstone
      uint16_t length = page.SlotLength(slot);
      Oid oid(file.file_id(), current, slot);
      if (offset < cell_start ||
          static_cast<uint32_t>(offset) + length > kPageSize) {
        report_->AddError(
            CheckLayer::kStorage, context,
            StringPrintf("slot %u cell [%u, %u) outside cell area [%u, %u)",
                         slot, offset, offset + length, cell_start,
                         kPageSize),
            current, oid);
        continue;
      }
      ++live;
      ++report_->stats.records_checked;
      live_bytes += length;
      cells.emplace_back(offset, length);

      uint16_t tag = CellTag(guard.data() + offset, length);
      if (tag == kForwardTag) {
        if (length != kStubBytes) {
          report_->AddError(
              CheckLayer::kStorage, context,
              StringPrintf("forwarding stub has %u bytes, expected %u",
                           length, kStubBytes),
              current, oid);
        } else {
          stubs[oid.Packed()] = DecodeU64(guard.data() + offset + 2);
        }
      } else {
        ++logical_records;
        if (tag == kMovedTag) {
          if (length < kStubBytes) {
            report_->AddError(CheckLayer::kStorage, context,
                              "relocated body shorter than its header",
                              current, oid);
          } else {
            moved[oid.Packed()] = DecodeU64(guard.data() + offset + 2);
          }
        }
      }
    }
    if (live != page.live_count()) {
      report_->AddError(
          CheckLayer::kStorage, context,
          StringPrintf("live_count %u but %u live slots found",
                       page.live_count(), live),
          current);
    }
    // Free-space accounting: the cell area holds exactly the live cells
    // plus the recorded fragmentation.
    if (live_bytes + page.frag_bytes() != kPageSize - cell_start) {
      report_->AddError(
          CheckLayer::kStorage, context,
          StringPrintf("free-space accounting broken: %llu live bytes + %u "
                       "frag != %u cell-area bytes",
                       static_cast<unsigned long long>(live_bytes),
                       page.frag_bytes(), kPageSize - cell_start),
          current);
    }
    // Live cells must not overlap.
    std::sort(cells.begin(), cells.end());
    for (size_t i = 1; i < cells.size(); ++i) {
      if (cells[i - 1].first + cells[i - 1].second > cells[i].first) {
        report_->AddError(
            CheckLayer::kStorage, context,
            StringPrintf("cells at offsets %u and %u overlap",
                         cells[i - 1].first, cells[i].first),
            current);
        break;
      }
    }

    prev = current;
    current = page.next_page();
  }
  if (Full()) return;

  if (pages_seen != file.page_count()) {
    report_->AddError(CheckLayer::kStorage, context,
                      StringPrintf("page chain has %u pages but metadata "
                                   "records %u",
                                   pages_seen, file.page_count()));
  }
  if (file.page_count() > 0 && prev != file.last_page()) {
    report_->AddError(CheckLayer::kStorage, context,
                      StringPrintf("chain tail is page %u but metadata "
                                   "records %u",
                                   prev, file.last_page()));
  }
  if (logical_records != file.record_count()) {
    report_->AddError(
        CheckLayer::kStorage, context,
        StringPrintf("%llu records stored but metadata records %llu",
                     static_cast<unsigned long long>(logical_records),
                     static_cast<unsigned long long>(file.record_count())));
  }

  // Relocation stubs and bodies must pair up exactly.
  for (const auto& [stub_packed, target_packed] : stubs) {
    if (Full()) return;
    Oid stub = Oid::FromPacked(stub_packed);
    auto it = moved.find(target_packed);
    if (it == moved.end()) {
      report_->AddError(CheckLayer::kStorage, context,
                        "forwarding stub points at a missing relocated body",
                        kInvalidPageId, stub);
    } else if (it->second != stub_packed) {
      report_->AddError(CheckLayer::kStorage, context,
                        "relocated body's original OID does not point back "
                        "at its forwarding stub",
                        kInvalidPageId, stub);
    }
  }
  for (const auto& [body_packed, original_packed] : moved) {
    if (Full()) return;
    Oid body = Oid::FromPacked(body_packed);
    auto it = stubs.find(original_packed);
    if (it == stubs.end() || it->second != body_packed) {
      report_->AddError(CheckLayer::kStorage, context,
                        "relocated body has no forwarding stub at its "
                        "original OID",
                        kInvalidPageId, body);
    }
  }
}

void IntegrityChecker::CheckDeviceChecksums() {
  // Read straight from the device: the device copy of a page is the last
  // flushed (stamped) version and must always be self-consistent, even
  // while newer dirty versions sit in the pool. Page 0 is the header blob.
  StorageDevice* device = db_->pool().device();
  uint8_t buf[kPageSize];
  for (PageId page_id = 1; page_id < device->page_count(); ++page_id) {
    if (Full()) return;
    Status s = device->ReadPage(page_id, buf);
    if (!s.ok()) {
      report_->AddError(CheckLayer::kStorage, "device",
                        "page unreadable: " + s.ToString(), page_id);
      continue;
    }
    ++report_->stats.checksum_pages_verified;
    if (!VerifyPageChecksum(buf)) {
      report_->AddError(CheckLayer::kStorage, "device",
                        "page checksum mismatch", page_id);
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 2: indexes
// ---------------------------------------------------------------------------

void IntegrityChecker::CheckIndexes() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const std::string& set_name : db_->catalog().SetNames()) {
    auto set_result = db_->GetSet(set_name);
    if (!set_result.ok()) continue;  // reported by the storage layer
    ObjectSet* set = set_result.value();
    for (const IndexInfo* info : db_->catalog().IndexesOnSet(set_name)) {
      if (Full()) return;
      const std::string context = "index " + info->name;
      auto tree_result = db_->indexes().GetIndex(info->name);
      if (!tree_result.ok()) {
        report_->AddError(CheckLayer::kIndex, context,
                          "index has no open tree: " +
                              tree_result.status().ToString());
        continue;
      }
      BTree* tree = tree_result.value();
      Status invariants = tree->CheckInvariants();
      if (!invariants.ok()) {
        report_->AddError(CheckLayer::kIndex, context,
                          "tree invariants violated: " +
                              invariants.ToString());
        // Ordering is broken; entry cross-checks would cascade.
        continue;
      }

      // Every entry must name a live object whose key matches.
      uint64_t entries = 0;
      Status scan = tree->ScanRange(kMin, kMax, [&](int64_t key, Oid oid) {
        ++entries;
        ++report_->stats.index_entries_checked;
        if (Full()) return false;
        Object object;
        if (oid.file_id != set->file().file_id() ||
            !set->Read(oid, &object).ok()) {
          report_->AddError(CheckLayer::kIndex, context,
                            "entry points at a missing object",
                            kInvalidPageId, oid);
          return true;
        }
        auto expected = db_->indexes().KeyFor(*info, object);
        if (!expected.ok()) {
          report_->AddError(CheckLayer::kIndex, context,
                            "entry for an object that should not be indexed",
                            kInvalidPageId, oid);
        } else if (expected.value() != key) {
          report_->AddError(
              CheckLayer::kIndex, context,
              StringPrintf("entry key %lld but object's key is %lld",
                           static_cast<long long>(key),
                           static_cast<long long>(expected.value())),
              kInvalidPageId, oid);
        }
        return true;
      });
      if (!scan.ok()) {
        report_->AddError(CheckLayer::kIndex, context,
                          "tree scan failed: " + scan.ToString());
        continue;
      }
      if (Full()) return;
      if (entries != tree->size()) {
        report_->AddError(
            CheckLayer::kIndex, context,
            StringPrintf("tree holds %llu entries but records %llu",
                         static_cast<unsigned long long>(entries),
                         static_cast<unsigned long long>(tree->size())));
      }

      // Every indexable object must have its entry.
      Status set_scan = set->Scan([&](const Oid& oid, const Object& object) {
        if (Full()) return false;
        auto key = db_->indexes().KeyFor(*info, object);
        if (!key.ok()) return true;  // unindexed (null / unreplicated)
        std::vector<Oid> found;
        if (!tree->Lookup(key.value(), &found).ok() ||
            std::find(found.begin(), found.end(), oid) == found.end()) {
          report_->AddError(CheckLayer::kIndex, context,
                            "object missing from the index", kInvalidPageId,
                            oid);
        }
        return true;
      });
      if (!set_scan.ok()) {
        report_->AddError(CheckLayer::kIndex, context,
                          "set scan failed: " + set_scan.ToString());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 3: catalog
// ---------------------------------------------------------------------------

void IntegrityChecker::CheckCatalog() {
  const Catalog& catalog = db_->catalog();
  for (const std::string& set_name : catalog.SetNames()) {
    if (Full()) return;
    auto info = catalog.GetSet(set_name);
    if (!info.ok()) continue;
    auto type = catalog.GetType(info.value()->type_name);
    if (!type.ok()) {
      report_->AddError(CheckLayer::kCatalog, "set " + set_name,
                        "element type '" + info.value()->type_name +
                            "' is not defined");
      continue;
    }
    Status valid = type.value()->Validate();
    if (!valid.ok()) {
      report_->AddError(CheckLayer::kCatalog,
                        "type " + type.value()->name(),
                        "definition invalid: " + valid.ToString());
    }
    for (const AttributeDescriptor& attr : type.value()->attributes()) {
      if (attr.is_ref() && !catalog.HasType(attr.ref_type)) {
        report_->AddError(CheckLayer::kCatalog,
                          "type " + type.value()->name(),
                          "ref attribute '" + attr.name +
                              "' names undefined type '" + attr.ref_type +
                              "'");
      }
    }
    CheckObjects(set_name);
  }

  for (uint16_t path_id : catalog.AllPathIds()) {
    if (Full()) return;
    const ReplicationPathInfo* path = catalog.GetPath(path_id);
    if (path == nullptr) continue;
    const std::string context = "path " + path->spec;
    if (!catalog.GetSet(path->bound.set_name).ok()) {
      report_->AddError(CheckLayer::kCatalog, context,
                        "head set '" + path->bound.set_name +
                            "' is not defined");
    }
    for (uint8_t link_id : path->link_sequence) {
      const LinkInfo* link = catalog.link_registry().GetLink(link_id);
      if (link == nullptr) {
        report_->AddError(CheckLayer::kCatalog, context,
                          StringPrintf("link %u is not registered", link_id));
      } else if (link->link_set_file != kInvalidFileId &&
                 !db_->GetAuxFile(link->link_set_file).ok()) {
        report_->AddError(CheckLayer::kCatalog, context,
                          StringPrintf("link set file %u is not open",
                                       link->link_set_file));
      }
    }
    if (path->strategy == ReplicationStrategy::kSeparate &&
        !db_->GetAuxFile(path->replica_set_file).ok()) {
      report_->AddError(CheckLayer::kCatalog, context,
                        StringPrintf("replica set (S') file %u is not open",
                                     path->replica_set_file));
    }
  }

  for (const std::string& set_name : catalog.SetNames()) {
    for (const IndexInfo* info : catalog.IndexesOnSet(set_name)) {
      if (Full()) return;
      const std::string context = "index " + info->name;
      auto set_info = catalog.GetSet(info->set_name);
      if (!set_info.ok()) {
        report_->AddError(CheckLayer::kCatalog, context,
                          "indexed set '" + info->set_name +
                              "' is not defined");
        continue;
      }
      if (info->is_path_index) {
        if (catalog.GetPath(info->path_id) == nullptr) {
          report_->AddError(
              CheckLayer::kCatalog, context,
              StringPrintf("path index names dropped path %u",
                           info->path_id));
        }
      } else {
        auto type = catalog.GetType(set_info.value()->type_name);
        if (type.ok() &&
            (info->attr_index < 0 ||
             static_cast<size_t>(info->attr_index) >=
                 type.value()->attribute_count())) {
          report_->AddError(CheckLayer::kCatalog, context,
                            StringPrintf("attribute index %d out of range",
                                         info->attr_index));
        }
      }
    }
  }
}

void IntegrityChecker::CheckObjects(const std::string& set_name) {
  const Catalog& catalog = db_->catalog();
  auto set_result = db_->GetSet(set_name);
  if (!set_result.ok()) return;
  ObjectSet* set = set_result.value();
  const TypeDescriptor& type = set->type();
  const std::string context = "set " + set_name;

  Status scan = set->Scan([&](const Oid& oid, const Object& object) {
    if (Full()) return false;
    ++report_->stats.objects_checked;
    if (object.type_tag() != type.type_tag()) {
      report_->AddError(CheckLayer::kCatalog, context,
                        StringPrintf("object type tag %u but set type is %u",
                                     object.type_tag(), type.type_tag()),
                        kInvalidPageId, oid);
      return true;
    }
    if (object.fields().size() != type.attribute_count()) {
      report_->AddError(
          CheckLayer::kCatalog, context,
          StringPrintf("object has %zu fields but type defines %zu",
                       object.fields().size(), type.attribute_count()),
          kInvalidPageId, oid);
      return true;
    }
    for (size_t i = 0; i < type.attribute_count(); ++i) {
      const AttributeDescriptor& attr = type.attribute(i);
      const Value& value = object.field(i);
      if (!value.is_null() && !value.MatchesType(attr.type)) {
        report_->AddError(CheckLayer::kCatalog, context,
                          "field '" + attr.name +
                              "' holds a value of the wrong kind",
                          kInvalidPageId, oid);
        continue;
      }
      if (attr.is_ref() && value.is_ref() && value.as_ref().valid()) {
        const Oid target = value.as_ref();
        auto target_set = catalog.GetSetForFile(target.file_id);
        if (!target_set.ok() ||
            target_set.value()->type_name != attr.ref_type) {
          report_->AddError(CheckLayer::kCatalog, context,
                            "ref '" + attr.name +
                                "' points outside any set of type " +
                                attr.ref_type,
                            kInvalidPageId, oid);
          continue;
        }
        Object target_obj;
        if (!db_->replication().ops().ReadObject(target, &target_obj).ok()) {
          report_->AddError(CheckLayer::kCatalog, context,
                            "ref '" + attr.name +
                                "' dangles (no object at " +
                                target.ToString() + ")",
                            kInvalidPageId, oid);
        }
      }
    }
    // The hidden section must name registered links and live paths.
    for (const LinkRef& ref : object.link_refs()) {
      if (catalog.link_registry().GetLink(ref.link_id) == nullptr) {
        report_->AddError(
            CheckLayer::kCatalog, context,
            StringPrintf("hidden link ref names unregistered link %u",
                         ref.link_id),
            kInvalidPageId, oid);
      }
    }
    for (const ReplicaValueSlot& slot : object.replica_values()) {
      if (catalog.GetPath(slot.path_id) == nullptr) {
        report_->AddError(
            CheckLayer::kCatalog, context,
            StringPrintf("hidden replica values name dropped path %u",
                         slot.path_id),
            kInvalidPageId, oid);
      }
    }
    for (const ReplicaRefSlot& slot : object.replica_refs()) {
      if (catalog.GetPath(slot.path_id) == nullptr) {
        report_->AddError(
            CheckLayer::kCatalog, context,
            StringPrintf("hidden replica ref names dropped path %u",
                         slot.path_id),
            kInvalidPageId, oid);
      }
    }
    return true;
  });
  if (!scan.ok()) {
    report_->AddError(CheckLayer::kCatalog, context,
                      "set scan failed: " + scan.ToString());
  }
}

// ---------------------------------------------------------------------------
// Layer 4: replication
// ---------------------------------------------------------------------------

void IntegrityChecker::CheckReplication() {
  for (uint16_t path_id : db_->catalog().AllPathIds()) {
    if (Full()) return;
    Status s = db_->replication().VerifyPathToReport(path_id, report_);
    if (!s.ok()) {
      const ReplicationPathInfo* path = db_->catalog().GetPath(path_id);
      report_->AddError(CheckLayer::kReplication,
                        path == nullptr ? StringPrintf("path %u", path_id)
                                        : "path " + path->spec,
                        "verification aborted: " + s.ToString());
    }
  }
  if (!Full()) CheckLinkSets();
  if (!Full()) CheckReplicaSets();
}

void IntegrityChecker::CheckLinkSets() {
  const LinkRegistry& registry = db_->catalog().link_registry();

  // Pass 1: load every link record of every link set file.
  struct LinkRecord {
    LinkObjectData data;
    bool reachable = false;
  };
  std::map<FileId, std::map<uint64_t, LinkRecord>> files;
  for (uint8_t link_id : registry.AllLinkIds()) {
    const LinkInfo* link = registry.GetLink(link_id);
    if (link == nullptr || link->link_set_file == kInvalidFileId) continue;
    files.emplace(link->link_set_file,
                  std::map<uint64_t, LinkRecord>());
  }
  for (auto& [file_id, records] : files) {
    auto file = db_->GetAuxFile(file_id);
    if (!file.ok()) continue;  // reported by the catalog layer
    const std::string context = StringPrintf("link set (file %u)", file_id);
    Status scan = file.value()->Scan(
        [&](const Oid& oid, const std::string& payload) {
          if (Full()) return false;
          ++report_->stats.link_objects_checked;
          LinkRecord record;
          Status parse = record.data.Deserialize(payload);
          if (!parse.ok()) {
            report_->AddError(CheckLayer::kReplication, context,
                              "record is not a link object: " +
                                  parse.ToString(),
                              kInvalidPageId, oid);
            return true;
          }
          const LinkInfo* link = registry.GetLink(record.data.link_id());
          if (link == nullptr) {
            report_->AddError(
                CheckLayer::kReplication, context,
                StringPrintf("link object names unregistered link %u",
                             record.data.link_id()),
                kInvalidPageId, oid);
          } else if (record.data.tagged() != link->collapsed) {
            report_->AddError(CheckLayer::kReplication, context,
                              "link object's tagged flag disagrees with the "
                              "link definition",
                              kInvalidPageId, oid);
          }
          const std::vector<LinkEntry>& entries = record.data.entries();
          for (size_t i = 1; i < entries.size(); ++i) {
            if (!(entries[i - 1].member < entries[i].member)) {
              report_->AddError(CheckLayer::kReplication, context,
                                "link object members out of sorted order",
                                kInvalidPageId, oid);
              break;
            }
          }
          records.emplace(oid.Packed(), std::move(record));
          return true;
        });
    if (!scan.ok()) {
      report_->AddError(CheckLayer::kReplication, context,
                        "scan failed: " + scan.ToString());
    }
  }
  if (Full()) return;

  // Pass 2: every owner's LinkRef must resolve to a well-formed segment
  // chain whose records point back at the owner.
  for (const std::string& set_name : db_->catalog().SetNames()) {
    auto set = db_->GetSet(set_name);
    if (!set.ok()) continue;
    Status scan = set.value()->Scan([&](const Oid& oid,
                                        const Object& object) {
      if (Full()) return false;
      for (const LinkRef& ref : object.link_refs()) {
        const LinkInfo* link = registry.GetLink(ref.link_id);
        if (link == nullptr) continue;  // reported by the catalog layer
        const std::string context =
            StringPrintf("link %u of %s", ref.link_id, set_name.c_str());
        if (ref.inlined) {
          for (size_t i = 1; i < ref.inline_oids.size(); ++i) {
            if (!(ref.inline_oids[i - 1] < ref.inline_oids[i])) {
              report_->AddError(CheckLayer::kReplication, context,
                                "inlined link members out of sorted order",
                                kInvalidPageId, oid);
              break;
            }
          }
          continue;
        }
        auto file_it = files.find(link->link_set_file);
        if (ref.link_oid.file_id != link->link_set_file ||
            file_it == files.end()) {
          report_->AddError(CheckLayer::kReplication, context,
                            "link ref points outside the link's set file",
                            kInvalidPageId, oid);
          continue;
        }
        Oid segment = ref.link_oid;
        std::set<uint64_t> seen;
        while (segment.valid()) {
          if (!seen.insert(segment.Packed()).second) {
            report_->AddError(CheckLayer::kReplication, context,
                              "link object segment chain contains a cycle",
                              kInvalidPageId, oid);
            break;
          }
          auto record_it = file_it->second.find(segment.Packed());
          if (record_it == file_it->second.end()) {
            report_->AddError(CheckLayer::kReplication, context,
                              "link ref dangles (no link object at " +
                                  segment.ToString() + ")",
                              kInvalidPageId, oid);
            break;
          }
          LinkRecord& record = record_it->second;
          record.reachable = true;
          if (record.data.link_id() != ref.link_id ||
              record.data.owner() != oid) {
            report_->AddError(CheckLayer::kReplication, context,
                              "link object at " + segment.ToString() +
                                  " does not belong to this owner",
                              kInvalidPageId, oid);
            break;
          }
          segment = record.data.next_segment();
        }
      }
      return true;
    });
    if (!scan.ok()) {
      report_->AddError(CheckLayer::kReplication, "set " + set_name,
                        "scan failed: " + scan.ToString());
    }
  }
  if (Full()) return;

  // Pass 3: link objects no owner points at are orphans.
  for (const auto& [file_id, records] : files) {
    for (const auto& [packed, record] : records) {
      if (Full()) return;
      if (!record.reachable) {
        report_->AddError(
            CheckLayer::kReplication,
            StringPrintf("link set (file %u)", file_id),
            "orphan link object (owner " + record.data.owner().ToString() +
                " does not reference it)",
            kInvalidPageId, Oid::FromPacked(packed));
      }
    }
  }
}

void IntegrityChecker::CheckReplicaSets() {
  for (uint16_t path_id : db_->catalog().AllPathIds()) {
    const ReplicationPathInfo* path = db_->catalog().GetPath(path_id);
    if (path == nullptr ||
        path->strategy != ReplicationStrategy::kSeparate) {
      continue;
    }
    auto file = db_->GetAuxFile(path->replica_set_file);
    if (!file.ok()) continue;  // reported by the catalog layer
    const std::string context = "S' of " + path->spec;
    uint64_t prev_owner = 0;
    bool order_reported = false;
    Status scan = file.value()->Scan([&](const Oid& oid,
                                         const std::string& payload) {
      if (Full()) return false;
      ++report_->stats.replica_records_checked;
      ReplicaRecord record;
      Status parse = record.Deserialize(payload);
      if (!parse.ok()) {
        report_->AddError(CheckLayer::kReplication, context,
                          "record is not a replica record: " +
                              parse.ToString(),
                          kInvalidPageId, oid);
        return true;
      }
      if (record.path_id != path->id) {
        report_->AddError(
            CheckLayer::kReplication, context,
            StringPrintf("replica record belongs to path %u",
                         record.path_id),
            kInvalidPageId, oid);
        return true;
      }
      // S' stays ordered by the terminal (S) objects it mirrors — the
      // clustering property of Section 5. Decay is a performance bug, not
      // a correctness one.
      if (record.owner.Packed() < prev_owner && !order_reported) {
        report_->AddWarning(CheckLayer::kReplication, context,
                            "S' records out of S physical order",
                            kInvalidPageId, oid);
        order_reported = true;
      }
      prev_owner = record.owner.Packed();

      Object terminal;
      ObjectSet* terminal_set = nullptr;
      if (!db_->replication()
               .ops()
               .ReadObject(record.owner, &terminal, &terminal_set)
               .ok()) {
        report_->AddError(CheckLayer::kReplication, context,
                          "replica record's owner " +
                              record.owner.ToString() + " does not exist",
                          kInvalidPageId, oid);
        return true;
      }
      const ReplicaRefSlot* slot = terminal.FindReplicaRef(path->id);
      if (slot == nullptr || slot->replica_oid != oid) {
        report_->AddError(CheckLayer::kReplication, context,
                          "orphan replica record (owner does not point "
                          "back at it)",
                          kInvalidPageId, oid);
        return true;
      }
      if (slot->refcount == 0) {
        report_->AddError(CheckLayer::kReplication, context,
                          "replica record kept alive with refcount 0",
                          kInvalidPageId, oid);
      }
      const std::vector<int>& terminal_fields = path->bound.terminal_fields;
      if (record.values.size() != terminal_fields.size()) {
        report_->AddError(
            CheckLayer::kReplication, context,
            StringPrintf("replica record holds %zu values, path "
                         "replicates %zu fields",
                         record.values.size(), terminal_fields.size()),
            kInvalidPageId, oid);
        return true;
      }
      for (size_t i = 0; i < terminal_fields.size(); ++i) {
        auto current = terminal_set->GetField(terminal, terminal_fields[i]);
        if (!current.ok() || !(current.value() == record.values[i])) {
          report_->AddError(CheckLayer::kReplication, context,
                            "stale replica value (S' record disagrees with "
                            "terminal " +
                                record.owner.ToString() + ")",
                            kInvalidPageId, oid);
          break;
        }
      }
      return true;
    });
    if (!scan.ok()) {
      report_->AddError(CheckLayer::kReplication, context,
                        "scan failed: " + scan.ToString());
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 5: WAL
// ---------------------------------------------------------------------------

void IntegrityChecker::CheckWal() {
  WalManager* wal = db_->wal();
  if (wal != nullptr && wal->broken()) {
    report_->AddError(CheckLayer::kWal, "",
                      "WAL manager is in the broken state (a log write "
                      "failed; uncommitted pages are pinned)");
  }
  if (db_->wal_device() != nullptr) {
    CheckWalDevice(db_->wal_device(), options_.include_info, report_);
  }
}

void IntegrityChecker::CheckWalDevice(StorageDevice* device,
                                      bool include_info,
                                      CheckReport* report) {
  LogReader reader(device);
  bool valid = false;
  Status open = reader.Open(&valid);
  if (!open.ok()) {
    report->AddError(CheckLayer::kWal, "log",
                     "log header unreadable: " + open.ToString());
    return;
  }
  if (!valid) {
    if (include_info) {
      report->AddInfo(CheckLayer::kWal, "log",
                      "no usable log header (empty or reset log)");
    }
    return;
  }
  if (reader.epoch() == 0) {
    report->AddError(CheckLayer::kWal, "log", "log header epoch is 0");
  }

  std::set<uint64_t> open_txns;
  uint64_t records = 0;
  uint64_t committed = 0;
  while (true) {
    LogRecord record;
    bool end = false;
    Status s = reader.ReadNext(&record, &end);
    if (!s.ok()) {
      report->AddError(CheckLayer::kWal, "log",
                       "record stream unreadable: " + s.ToString());
      return;
    }
    if (end) break;
    ++records;
    ++report->stats.wal_records_scanned;
    switch (record.type) {
      case LogRecordType::kBegin:
        if (!open_txns.insert(record.txn_id).second) {
          report->AddWarning(
              CheckLayer::kWal, "log",
              StringPrintf("transaction %llu begun twice",
                           static_cast<unsigned long long>(record.txn_id)));
        }
        break;
      case LogRecordType::kPageWrite:
        if (open_txns.count(record.txn_id) == 0) {
          report->AddWarning(
              CheckLayer::kWal, "log",
              StringPrintf("page write for transaction %llu outside a "
                           "begin/commit bracket",
                           static_cast<unsigned long long>(record.txn_id)));
        }
        break;
      case LogRecordType::kCommit:
        if (open_txns.erase(record.txn_id) == 0) {
          report->AddWarning(
              CheckLayer::kWal, "log",
              StringPrintf("commit for transaction %llu without a begin",
                           static_cast<unsigned long long>(record.txn_id)));
        } else {
          ++committed;
        }
        break;
      case LogRecordType::kCheckpoint:
        break;
    }
  }
  if (include_info) {
    report->AddInfo(
        CheckLayer::kWal, "log",
        StringPrintf("epoch %llu: %llu record(s), %llu committed "
                     "transaction(s), %zu uncommitted at the tail",
                     static_cast<unsigned long long>(reader.epoch()),
                     static_cast<unsigned long long>(records),
                     static_cast<unsigned long long>(committed),
                     open_txns.size()));
  }
}

}  // namespace fieldrep
