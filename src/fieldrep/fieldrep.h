#ifndef FIELDREP_FIELDREP_H_
#define FIELDREP_FIELDREP_H_

/// \file
/// Umbrella header for the fieldrep library — the public API a downstream
/// user needs:
///
///  * Database (db/database.h): open, define types, create sets, insert/
///    update/delete objects, replicate paths, build indexes, run queries,
///    checkpoint.
///  * Query types (query/read_query.h, query/update_query.h,
///    query/predicate.h).
///  * Replication control (replication/replication_manager.h):
///    ReplicateOptions, consistency verification, inverse lookups.
///  * The Section 6 analytical cost model (costmodel/*).
///  * The EXTRA-flavoured statement language (extra/interpreter.h).
///
/// Internal layers (storage, catalog, objects, index) are reachable through
/// their own headers when needed; most applications should not need them.

#include "costmodel/cost_model.h"
#include "costmodel/params.h"
#include "costmodel/series.h"
#include "costmodel/yao.h"
#include "db/database.h"
#include "extra/interpreter.h"
#include "query/predicate.h"
#include "query/read_query.h"
#include "query/update_query.h"
#include "replication/replication_manager.h"

#endif  // FIELDREP_FIELDREP_H_
