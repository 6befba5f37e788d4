// Wire protocol between the LittleTable server and its clients (§3.1).
//
// The paper's clients load a custom adaptor into SQLite's virtual-table
// interface; internally that adaptor speaks a binary protocol over a
// persistent TCP connection to the server — listing tables, fetching each
// table's schema and sort order, and performing inserts and queries. This
// header defines that protocol.
//
// Framing: every message is [fixed32 payload_length][payload], where the
// payload begins with a one-byte message type. Row and bounds encodings are
// schema-dependent, so requests carry the schema version the client encoded
// against; the server answers kErrSchemaChanged when stale and the client
// refreshes its cached schema and retries.
//
// Durability surface (§3.1): there is deliberately NO acknowledgement that
// an insert reached stable storage — the server replies as soon as rows are
// in an in-memory tablet. Clients detect server crashes via disconnection
// and re-read recent data from their devices.
#ifndef LITTLETABLE_NET_WIRE_H_
#define LITTLETABLE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/schema.h"

namespace lt {
namespace wire {

enum class MsgType : uint8_t {
  // Requests.
  kPing = 1,
  kListTables = 2,
  kGetTable = 3,      // body: name
  kCreateTable = 4,   // body: name, schema, ttl
  kDropTable = 5,     // body: name
  kInsert = 6,        // body: name, schema version, row count, rows
  kQuery = 7,         // body: name, schema version, bounds (EncodeBounds:
                      //   flags byte; min/max key prefixes as the flags
                      //   say; zigzag varint64 min_ts, max_ts; varint64
                      //   limit; then, only when flag kBoundsProjected
                      //   (0x80) is set, varint32 count and `count`
                      //   varint32 column indexes, the projection).
  kLatestRow = 8,     // body: name, schema version, prefix
  kFlushThrough = 9,  // body: name, ts (§4.1.2 extension)
  kAppendColumn = 10, // body: name, column
  kWidenColumn = 11,  // body: name, column name
  kSetTtl = 12,       // body: name, ttl
  // 13 is reserved: the retired kStats, whose counter-only reply kStatsV2
  // carries as its first section.
  kStatsV2 = 14,      // body: name ("" = server-wide, no table's)

  // Cluster requests (src/cluster). A server without a cluster extension
  // handler answers these with kBadRequest; the coordinator and replica
  // agents install handlers via ServerOptions::extension.
  kGetShardMap = 15,   // body: empty; answered with kShardMapResult
  kAssignShard = 16,   // body: group, epoch, role byte, peer host, peer port
  kRoutedInsert = 17,  // body: group, epoch, then a kInsert body
  kRoutedQuery = 18,   // body: group, epoch, then a full read-op payload
                       //       (type byte + body: kQuery/kLatestRow/
                       //       kGetTable/kFlushThrough)
  kRoutedCreate = 19,  // body: group, epoch, then a kCreateTable body
  kReplicateRows = 20, // body: group, epoch, stream, floor, first_seq,
                       //       count, entries (redo window shipping)
  kShipTablet = 21,    // body: group, epoch, table, tablet meta, crc32c,
                       //       payload (whole immutable tablet file)
  kTabletSetSync = 22, // body: group, epoch, stream, redo floor, per-table
                       //       authoritative tablet lists; prunes extras

  // Overload control (PR 10).
  kCancel = 23,        // body: empty. Aborts the connection's in-flight
                       //       streaming query (the query answers kError/
                       //       kCancelled as its terminal frame); a no-op
                       //       kOk when nothing is in flight. Handled
                       //       out-of-band at decode time so it overtakes
                       //       the very scan it aborts.
  kSetTenant = 24,     // body: varint64 ConfigStore network id. Binds the
                       //       connection to a tenant for per-tenant
                       //       quota accounting; 0 clears the binding.

  // Responses.
  kOk = 64,
  kError = 65,       // body: code byte, message
  kTableList = 66,   // body: count, names
  kTableInfo = 67,   // body: schema, ttl
  kQueryChunk = 68,  // body: flags, schema version, row count, rows
  kRowResult = 69,   // body: found byte, schema version, row
  // 70 is reserved: the retired kStatsResult.
  // Body: varint32 count, then (name, varint64 value) counter pairs;
  // then latency histograms: varint32 count, then per histogram (name,
  // varint64 count, p50, p90, p99, p999, max — all microseconds).
  kStatsV2Result = 71,
  kShardMapResult = 72,  // body: encoded cluster::ShardMap
  // Body: varint64 contiguously-stored redo head. A kTabletSetSync reply
  // additionally appends the secondary's authoritative per-table tablet
  // lists (varint32 table count, then per table: len-prefixed name,
  // varint32 file count, per file: len-prefixed filename, varint64
  // file_bytes, varint64 row_count) so the primary's peer picture
  // self-heals after a secondary restart.
  kRedoAck = 73,
};

/// Error codes carried by kError.
enum class ErrCode : uint8_t {
  kGeneric = 0,
  kNotFound = 1,
  kAlreadyExists = 2,
  kInvalidArgument = 3,
  kSchemaChanged = 4,  // Client must refetch the table schema and retry.
  kCorruption = 5,
  kIOError = 6,
  kServerBusy = 7,     // Connection cap reached or ingest backlogged; retry
                       // with backoff.
  kShuttingDown = 8,   // Server is draining; reconnect elsewhere/later.
  kBadRequest = 9,     // Malformed frame: unknown opcode byte. The request
                       // was never dispatched; retrying it verbatim fails
                       // the same way.
  kWrongShard = 10,    // Routed request hit a node that is not the current
                       // primary for that (group, epoch): the client must
                       // refetch the shard map and retry.
  kResourceExhausted = 11,  // Load shed: a per-tenant quota ran dry or the
                            // admission wait queue is full. Retryable
                            // after backoff, like kServerBusy, but names
                            // the cause so clients can distinguish "this
                            // tenant is over its budget" from "the server
                            // is busy".
  kCancelled = 12,     // The request was aborted by a kCancel from the
                       // same connection (terminal frame of the cancelled
                       // query). Not retryable: the caller asked for it.
};

/// Bounds flag: a projection follows the limit. The projection is a decode
/// hint (QueryBounds::projection): cells outside it come back carrying the
/// column default, in the same chunk format. A server that predates the
/// flag ignores it and the trailing bytes and returns full rows, which is
/// equally correct. Unprojected requests never set it, so their bytes do
/// not change. The decoder rejects a count above the schema's column count
/// (before allocating) and any index outside the schema with Corruption.
constexpr uint8_t kBoundsProjected = 0x80;

/// kQueryChunk flags.
constexpr uint8_t kChunkFinal = 0x1;          // Last chunk of this query.
constexpr uint8_t kChunkMoreAvailable = 0x2;  // Server row limit was hit.

/// Sentinel "client omitted the timestamp" value: the server replaces it
/// with the current time (§3.1).
constexpr Timestamp kOmittedTimestamp = INT64_MIN;

/// Maximum accepted frame payload (defensive bound).
constexpr uint32_t kMaxFrameBytes = 64u << 20;

// ---- Frame assembly. Payload = type byte + body. ----

/// Builds a complete frame (length prefix + type + body).
std::string Frame(MsgType type, const std::string& body);

// ---- Body encodings. ----

void EncodeBounds(std::string* dst, const Schema& schema,
                  const QueryBounds& bounds);
Status DecodeBounds(Slice* in, const Schema& schema, QueryBounds* out);

/// Key prefixes (used by bounds and latest-row requests).
void EncodeKeyPrefix(std::string* dst, const Schema& schema, const Key& key);
Status DecodeKeyPrefix(Slice* in, const Schema& schema, Key* out);

/// Status <-> wire error mapping.
ErrCode CodeForStatus(const Status& s);
Status StatusForCode(ErrCode code, const std::string& message);

}  // namespace wire
}  // namespace lt

#endif  // LITTLETABLE_NET_WIRE_H_
