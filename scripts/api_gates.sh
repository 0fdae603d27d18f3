#!/usr/bin/env bash
# Grep gates: API names and call shapes that were removed from the tree and
# must stay removed.
#
#   api_gates.sh [ROOT]     run every gate over ROOT (default: the repo root)
#   api_gates.sh --self-test
#
# A gate passes only when grep finds nothing (exit 1). A match (exit 0) and
# a grep error (exit 2: bad pattern, bad option, missing path) both fail it,
# so a gate cannot pass by accident. --self-test copies the tree to a
# temporary directory, checks that every gate passes on the clean copy,
# then plants one violation per gate and checks that exactly that gate
# fires; it also checks that a gate whose paths are missing fails.
set -uo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
repo="$(dirname "$here")"

GATES=(pre_span_first qid_less chacha_block flat_config compat_layer
       ofstream bus_triplets single_query hand_wired_metrics
       streaming_runtime per_client_copies per_record_framing window_fanout
       shard_knob dead_knobs record_index one_driver owning_paths one_store
       one_proxy_tier)

# Each gate_<name> runs its grep from the tree root; plant_<name> is
# "<file>|<line>", a violation the self-test appends to that file.

# These owning/view API duplicates were collapsed into the span-first
# surface (proxy::Proxy::Receive/DecodeShares); any reappearance in code is
# a regression. Docs (CHANGES.md history) may mention them.
gate_pre_span_first() {
  grep -rnE \
    "ReceiveViews|ReceiveBatch|ReceiveAndForwardShardViews|DecodeShareViews|DecodeShareBatch|DecodedViewBatch" \
    src tests bench examples
}
plant_pre_span_first="src/planted.cc|auto v = proxy.ReceiveViews(batch);"

# Every share hop in the multi-query runtime is keyed by QID. System-layer
# call sites must pass the QID as the first argument (or break the line
# right after the opening parenthesis with the QID leading the next one —
# the lookahead accepts an open paren at end of line). The pattern starts
# with "->", so it must follow -e or grep reads it as options.
gate_qid_less() {
  grep -rnP \
    -e "->(Receive|NoteFaultLostMids|RouteShare|Defer)\((?!\s*($|qid|query_id|qids\[))" \
    src/system
}
plant_qid_less="src/system/planted.cc|proxy->Receive(shares);"

# ChaCha20BlockInto is the crypto module's internal single-block primitive;
# everything else goes through the multi-block SIMD engine
# (ChaCha20BlocksInto) or ChaCha20Rng so the hot path always gets the
# dispatched kernel. ChaCha20Block (the array-returning test helper) stays
# public.
gate_chacha_block() {
  grep -rn --exclude-dir=crypto "ChaCha20BlockInto" src tests bench examples
}
plant_chacha_block="src/common/planted.cc|ChaCha20BlockInto(out, key, nonce, 0);"

# The pre-observability flat knobs and SystemConfig::Resolved() are gone;
# configs use the nested pipeline.*/historical.* fields.
gate_flat_config() {
  grep -rnE \
    "(\.|->)(enable_historical|historical_dir|pipeline_mode|pipeline_depth|stream_shard_size)\b" \
    src tests bench examples
}
plant_flat_config="tests/planted.cc|config.pipeline_mode = 1;"

# Each of these had a replacement in the tree and was deleted: the
# SegmentedAnswerLog (historical answers are records of a broker topic),
# engine::PullPipeline and the owning broker::Consumer
# (transport::BusConsumer), SystemConfig::Resolved(), Proxy::ForwardParallel
# (Forward) and Client::AnswerQueryInto (AnswerSubscribedInto).
gate_compat_layer() {
  grep -rnE \
    "SegmentedAnswerLog|PullPipeline|Resolved\(|ForwardParallel|AnswerQueryInto|broker::Consumer\b|class Consumer\b|\bConsumer [a-z_]+\(" \
    src tests bench examples
}
plant_compat_layer="bench/planted.cc|storage::SegmentedAnswerLog log;"

# Durability has exactly one on-disk format: storage::PartitionLog (topics,
# the historical answer topic among them, and the query journal).
# Topic/share data written through a raw std::ofstream anywhere in the data
# plane would bypass CRC framing, crash recovery, and the directory lock —
# if a layer needs bytes on disk, it goes through src/storage.
gate_ofstream() {
  grep -rn "std::ofstream" \
    src/broker src/transport src/proxy src/aggregator src/engine \
    src/client src/system
}
plant_ofstream="src/transport/planted.cc|std::ofstream out(path);"

# The Broker/Consumer owning+batch+view API triplets collapsed into the
# single span-first MessageBus contract (transport/message_bus.h:
# Produce(topic, span) / Poll(..., out) / BusConsumer). Broker keeps no
# produce/poll surface of its own; the Batch/Views families must not come
# back anywhere.
gate_bus_triplets() {
  grep -rnE "ProduceBatch|ProduceViews|PollViews|PollPartitions" \
    src tests bench examples
}
plant_bus_triplets="examples/planted.cc|bus.ProduceBatch(topic, records);"

# The single-query leftovers are gone: engine::WindowBuffer (the aggregator
# adds answers to engine::PaneWindows), core::StratifiedExecutionPlan and
# StratifiedQueryEstimator (stats::StratifiedSumEstimator is the one
# stratified estimator), and the proxy's QID-less topic pair with Forward(),
# in_topic() and out_topic() (shares travel on lanes: Receive(qid, ...),
# ForwardLanes(), lane_in_topic/lane_out_topic).
gate_single_query() {
  grep -rnE \
    "\bWindowBuffer\b|StratifiedExecutionPlan|StratifiedQueryEstimator|\bForward\(\)|\b(in|out)_topic\(\)" \
    src tests bench examples
}
plant_single_query="tests/planted.cc|engine::WindowBuffer<int> windows(assigner, on_fire);"

# Components own their instruments: proxy::Proxy, aggregator::Aggregator,
# fault::FaultInjector and system::ClientFleet register their own families
# on the registry they are handed. The instrument pointer fields callers
# used to wire into their configs, fault::FaultCounters and the
# SystemConfig::metrics.enabled knob must not come back.
gate_hand_wired_metrics() {
  grep -rnE \
    "FaultCounters|metrics\.enabled|(\.|->)(received_total|forwarded_total|forward_ns|malformed_total|decode_ns|join_ns|window_ns|expired_mids_total|answers_total|skips_total|shard_shares_total|shard_joined_total|shard_imbalance_milli)\b" \
    src tests bench examples
}
plant_hand_wired_metrics="src/planted.cc|proxy_config.forwarded_total = &counter;"

# One epoch shape: the streaming stage/channel runtime and its three knobs
# are gone. Every epoch answers one contiguous client range per worker,
# then forwards per proxy, then drains — the in-process system and the TCP
# fleet driver run the same three steps. The channel/stage header, the
# pipeline mode enum and knobs, the per-shard consume/forward entries and
# the promised-count poll, the deferral buffer's QID-tagged frame and the
# in-process bus's simulated link model must not come back.
gate_streaming_runtime() {
  grep -rnE \
    "EpochPipelineMode|kStreaming|kBarrier|ConsumeShardBatch|FinishStream|ReceiveAndForwardShard|PollExactInto|common/channel\.h|pipeline\.(mode|depth|shard_size)\b|TaggedShare|simulated_transfer_ns" \
    src tests bench examples
}
plant_streaming_runtime="bench/planted.cc|config.pipeline.mode = system::EpochPipelineMode::kStreaming;"

# Compact client fleet: ClientFleet stores its clients contiguously, a
# client's database keeps its tables in one vector, a table keeps its rows
# at their natural width in one buffer of 16-byte Values, and a
# subscription is a QID, the cohort's shared CompiledQuery and the client's
# RNG streams, kept in a QID-sorted vector. A heap object per client, a
# deque-backed table, a vector per row, a map node per table, the 40-byte
# variant Value or a map node per subscription must not come back.
gate_per_client_copies() {
  grep -rnE \
    "unique_ptr<client::Client>|TimestampedRow|map<std::string, Table>|variant<int64_t, double, std::string>|map<uint64_t, Subscription>" \
    src tests bench examples
}
plant_per_client_copies="src/localdb/planted.cc|std::map<std::string, Table> tables_;"

# Records are framed in one place, the record-batch codec
# (storage/record_batch.h): a Produce request, a Poll response and a log
# segment each carry batches. The per-record headers of the wire and the
# log, and the client's per-record payload copy, must not come back.
gate_per_record_framing() {
  grep -rnE \
    "kProduceRecordHeaderBytes|kPollRecordHeaderBytes|StorePayload|kMinBodyBytes|kMaxBodyBytes" \
    src tests bench examples
}
plant_per_record_framing="src/transport/planted.cc|constexpr size_t kPollRecordHeaderBytes = 28;"

# Pane-sliced windows: an answer is added once, to the pane of its event
# time, and a window sums its panes (engine::PaneWindows). The assigner
# that fanned an answer out to every window holding it, the per-window
# accumulator maps, the fire-time merge map and the per-window walk of the
# lost-MID map must not come back.
gate_window_fanout() {
  grep -rnE \
    "SlidingWindowAssigner|AccumulatingWindowBuffer|AppendWindowsFor|WindowsFor\(|merged_scratch_|CountLossesInWindow" \
    src tests bench examples
}
plant_window_fanout="src/engine/planted.cc|for (const Window& w : assigner.WindowsFor(ts)) {}"

# One partitioning decision: broker::PartitionForKey places a MID, and the
# aggregator's join shards are the lane topic partitions it placed it in.
# A second MID hash and the shard-count knobs that sized it (the configs'
# num_shards, aggregatord's --shards, bench_epoch_pipeline's --agg-shards
# and its agg_shards row key) must not come back; the per-shard metric
# families (privapprox_agg_shard_*) stay.
gate_shard_knob() {
  grep -rnE \
    "\bnum_shards\b|\bShardOf\b|\bMixMid\b|agg[-_]shards|--shards\b|\"shards\"" \
    src tests bench examples
}
plant_shard_knob="src/planted.cc|config.aggregator.num_shards = 4;"

# Knobs nothing set or read: the stream-driven watermark and its bound, the
# fault plan's degraded-link model and late deadline with the transfer-time
# model only it called, the budget options that copied
# core::BudgetManagerConfig, and the owned InProcessBus behind the
# Broker& constructors of Proxy and Aggregator.
gate_dead_knobs() {
  grep -rnE \
    "AdvanceWatermarkToStream|BoundedOutOfOrderness|watermark_out_of_orderness|degraded_link|late_deadline_ms|TransferTimeMs|BudgetOptions|owned_bus_" \
    src tests bench examples
}
plant_dead_knobs="tests/planted.cc|aggregator.AdvanceWatermarkToStream();"

# The broker indexes runs, not records: one entry per run of fixed-width,
# payload-prefix-keyed records of one timestamp in one slab
# (broker/topic.h). The per-record index entry and the helper that grew it
# must not come back.
gate_record_index() {
  grep -rnE "IndexEntry|EnsureIndexCapacity" src tests bench examples
}
plant_record_index="src/broker/planted.cc|std::vector<IndexEntry> index;"

# One epoch driver: PrivApproxSystem and deploy::FleetDriver build their
# deployment and hand it to system::EpochDriver, which runs every step
# through the proxy and aggregator nodes' verbs. Neither may answer,
# forward, drain or register a query itself, or send those verbs. The knobs
# and entry points the merge left dead — the fleet driver's produce
# chunking (TcpBusClient::Produce splits batches), the fault plan's standby
# switch, the system's announcement and replay helpers, Proxy::HasLane,
# Proxy::AnnounceQuery, Client::subscribed_query_ids, the transport's
# PartitionForKey forwarder and the proxies' received counters — must not
# come back anywhere.
gate_one_driver() {
  local status
  grep -nE \
    "\bAnswer\(|ForwardLanes\(|Drain\(|RegisterQuery\(|\"(forward_lanes|drain|register_query)\"" \
    src/system/system.cc src/deploy/fleet_driver.cc
  status=$?
  [ "$status" -ne 1 ] && return "$status"
  grep -rnE \
    "produce_chunk_records|\.standby_proxies\b|DistributeAnnouncement|ReplayDeferredShares|HasLane\(|subscribed_query_ids|transport::PartitionForKey|AnnounceQuery|\"received_total\"|_received_total\{" \
    src tests bench examples
}
plant_one_driver="src/deploy/planted.cc|config.produce_chunk_records = 2048;"

# One path per layer: a topic appends with AppendViews and reads with
# ReadViews, routing by broker::PartitionForKey; a client subscribes with
# Subscribe and answers every subscription in one AnswerSubscribedInto
# pass. The owning record types, the topic's second partition function and
# the single-subscription answer path with its shims must not come back.
# PartitionLog::Append/AppendBatch are the storage layer's calls and stay.
gate_owning_paths() {
  grep -rnE \
    "\bProduceRecord\b|broker::Record\b|vector<Record>|struct Record\b|\bAnswerQuery\(|\bEpochAnswer\b|\bOnAnnouncement\(|\bPartitionOf\(|\bSingleSub\b" \
    src tests bench examples
}
plant_owning_paths="tests/planted.cc|const auto answer = client.AnswerQuery(now);"

# One record store: the broker. Historical answers are QID-keyed records of
# its `historical` topic, durable when broker.data_dir is, so any registered
# query answers RunHistorical(qid, ...). The in-memory ResponseStore, the
# second historical log with its own record format and directory option,
# the system's one-query rule, the construction-time query list, the
# logging module and aggregatord's otherwise unused broker must not come
# back.
gate_one_store() {
  grep -rnE \
    "ResponseStore|AppendAnswers|LoadAnswers|historical\.dir|SingleActive|QuerySpec|common/logging\.h|LogWarning|SetLogLevel|control_broker_" \
    src tests bench examples
}
plant_one_store="examples/planted.cc|config.historical.dir = \"/tmp/hist\";"

# One proxy tier: a share whose retries run out fails over into its own
# proxy's lane in-topic, after the epoch's other records, as a Kafka
# producer reaches a partition's new leader. The standby proxies with their
# own topics, config flag and metric families, and the plan predicate that
# built them, must not come back.
gate_one_proxy_tier() {
  grep -rniE "standby|CanTimeOut" src tests bench examples
}
plant_one_proxy_tier="src/proxy/planted.cc|proxy_config.standby = true;"

# Runs one gate in directory $2; returns 0 on pass. Prints why it failed.
run_gate() {
  local name="$1" root="$2" status
  (cd "$root" && "gate_$name")
  status=$?
  case "$status" in
    1) return 0 ;;
    0) echo "gate $name: found a removed name (matches above)" ;;
    *) echo "gate $name: grep failed with exit $status" ;;
  esac
  return 1
}

run_all() {
  local root="$1" failed=0 name
  for name in "${GATES[@]}"; do
    run_gate "$name" "$root" || failed=1
  done
  return "$failed"
}

self_test() {
  local failed=0 name other plant file line
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  cp -r "$repo/src" "$repo/tests" "$repo/bench" "$repo/examples" "$tmp/"
  if ! run_all "$tmp" > /dev/null; then
    echo "self-test: a gate fails on the clean tree"
    run_all "$tmp"
    return 1
  fi
  for name in "${GATES[@]}"; do
    plant="plant_$name"
    file="${!plant%%|*}"
    line="${!plant#*|}"
    mkdir -p "$tmp/$(dirname "$file")"
    echo "$line" >> "$tmp/$file"
    for other in "${GATES[@]}"; do
      if run_gate "$other" "$tmp" > /dev/null; then
        if [ "$other" = "$name" ]; then
          echo "self-test: gate $name missed its planted violation in $file"
          failed=1
        fi
      elif [ "$other" != "$name" ]; then
        echo "self-test: gate $other fired on the violation planted for $name"
        failed=1
      fi
    done
    rm -f "$tmp/$file"
  done
  # A grep error must fail the gate, not pass it: run every gate where its
  # paths do not exist.
  mkdir -p "$tmp/empty"
  for name in "${GATES[@]}"; do
    if run_gate "$name" "$tmp/empty" > /dev/null 2>&1; then
      echo "self-test: gate $name passed although grep failed"
      failed=1
    fi
  done
  if [ "$failed" -eq 0 ]; then
    echo "self-test: all ${#GATES[@]} gates fire on their planted violation"
  fi
  return "$failed"
}

if [ "${1:-}" = "--self-test" ]; then
  self_test
else
  run_all "${1:-$repo}"
fi
