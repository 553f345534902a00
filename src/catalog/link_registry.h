#ifndef FIELDREP_CATALOG_LINK_REGISTRY_H_
#define FIELDREP_CATALOG_LINK_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/path.h"
#include "common/status.h"
#include "storage/page.h"

namespace fieldrep {

/// Replication strategies (Sections 4 and 5).
enum class ReplicationStrategy : uint8_t {
  kInPlace = 0,   ///< replicated values stored in head-set objects
  kSeparate = 1,  ///< replicated values stored in a shared S' file
};

const char* ReplicationStrategyName(ReplicationStrategy s);

/// \brief Catalog record for one link of an inverted path.
///
/// A link P_i.P_{i+1}^-1 maps objects of `target_type` back to the
/// level-(i-1) objects that reference them. Links are shared between
/// replication paths with a common prefix from the same head set
/// (Section 4.1.4); `path_ids` lists the sharers.
struct LinkInfo {
  uint8_t id = 0;
  std::string key;          ///< canonical prefix, e.g. "Emp1.dept.org"
  std::string head_set;     ///< set the paths emanate from
  uint16_t level = 0;       ///< 1-based position in the replication path
  std::string source_type;  ///< type on the referencing side
  std::string target_type;  ///< type whose objects own the link objects
  std::string attr_name;    ///< ref attribute the link inverts
  bool collapsed = false;   ///< collapsed link (Section 4.3.3): entries
                            ///< are tagged with the intermediate OID
  /// Link objects with at most this many members are eliminated and stored
  /// inline in their owner (Section 4.3.1). Fixed at link creation; 0
  /// disables inlining (always 0 for collapsed links, whose entries carry
  /// tags that the inline representation cannot hold).
  uint32_t inline_threshold = 1;
  FileId link_set_file = kInvalidFileId;  ///< file storing the link objects
  std::vector<uint16_t> path_ids;         ///< replication paths sharing it
};

/// \brief Catalog record for one replication path
/// (`replicate Emp1.dept.org.name`).
struct ReplicationPathInfo {
  uint16_t id = 0;
  std::string spec;  ///< original text, e.g. "Emp1.dept.org.name"
  BoundPath bound;
  ReplicationStrategy strategy = ReplicationStrategy::kInPlace;
  /// Collapse the inverted path to one level (Section 4.3.3; in-place,
  /// 2-level paths only).
  bool collapsed = false;
  /// Link objects with at most this many member OIDs are eliminated and
  /// inlined into their owner (Section 4.3.1). 0 disables inlining.
  uint32_t inline_threshold = 1;
  /// Section 4.3.2: this path's links share one link file, with link
  /// objects grouped by terminal chain.
  bool cluster_links = false;
  /// The paper's link sequence, head to terminal (Section 4.1.3). Empty for
  /// 1-level separate paths, which need no inverted path.
  std::vector<uint8_t> link_sequence;
  /// For separate replication: the S' file holding replica records.
  FileId replica_set_file = kInvalidFileId;

  std::string LinkSequenceString() const;
};

/// \brief Owns link-ID assignment and the link catalog.
///
/// Link IDs are 8-bit (Figure 10: sizeof(link-ID) = 1 byte) and reusable
/// after a path is dropped, as Section 4.2 suggests.
class LinkRegistry {
 public:
  LinkRegistry() = default;

  /// Finds or creates the link with canonical `key`. When the link already
  /// exists (shared prefix) the path is appended to its sharers; the
  /// existing link's shape must match. Collapsed links are never shared.
  Status InternLink(const std::string& key, const std::string& head_set,
                    uint16_t level, const std::string& source_type,
                    const std::string& target_type,
                    const std::string& attr_name, bool collapsed,
                    uint16_t path_id, uint8_t* link_id);

  const LinkInfo* GetLink(uint8_t id) const;
  LinkInfo* GetMutableLink(uint8_t id);

  /// Detaches `path_id` from every link; links with no remaining sharers
  /// are freed and their ids become reusable. Freed link ids are returned.
  std::vector<uint8_t> ReleasePathLinks(uint16_t path_id);

  size_t link_count() const { return links_.size(); }
  std::vector<uint8_t> AllLinkIds() const;

  /// Serialization for database checkpoints.
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(class ByteReader* reader);

 private:
  std::map<uint8_t, LinkInfo> links_;
  std::map<std::string, uint8_t> by_key_;
  uint8_t next_id_ = 1;
};

}  // namespace fieldrep

#endif  // FIELDREP_CATALOG_LINK_REGISTRY_H_
