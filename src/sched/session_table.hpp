/**
 * @file
 * Dense structure-of-arrays session table for per-window hot scans.
 *
 * A window scan that reads one or two scalars per session (a window
 * weight, state flags) pays, in a `std::map<id, Record>`, a pointer chase
 * plus a whole cache line of cold record per visited session. Here the
 * hot scalars live in parallel arrays a scan streams through, the cold
 * record sits in a separate parallel array touched only on per-session
 * operations, and an unordered id -> dense-index view gives O(1) lookup.
 * Erase is swap-remove, so iteration order is NOT id order — a caller
 * that needs id-ordered output sorts the surviving ids.
 *
 * The fast engine keeps its kernels here (cold column plus lookup), and
 * the `roofline` bench's window-scan row measures the hot columns against
 * the map layout. The prototype's SchedulerShard binds its sessions in an
 * ordered map instead: each session's state is one record there, and its
 * harvest walks sessions in id order with no sort.
 */
#ifndef NBOS_SCHED_SESSION_TABLE_HPP
#define NBOS_SCHED_SESSION_TABLE_HPP

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nbos::sched {

/**
 * Id-keyed SoA table: hot columns (weight, flags) + a cold record column.
 *
 * @tparam Cold the per-session cold record (spec, buffers, bindings).
 * Flag-bit semantics belong to the caller; the table just stores a byte.
 */
template <typename Cold>
class SessionTable
{
  public:
    static constexpr std::int32_t npos = -1;

    /** Dense index of @p id, or npos. */
    std::int32_t find(std::int64_t id) const
    {
        const auto it = index_.find(id);
        return it == index_.end() ? npos : it->second;
    }

    /** Find-or-create: existing index, or a fresh zeroed row. */
    std::int32_t insert(std::int64_t id)
    {
        const auto [it, added] =
            index_.try_emplace(id, static_cast<std::int32_t>(ids_.size()));
        if (added) {
            ids_.push_back(id);
            weights_.push_back(0);
            flags_.push_back(0);
            cold_.emplace_back();
        }
        return it->second;
    }

    /** Swap-remove @p id. @return true if it was present. */
    bool erase(std::int64_t id)
    {
        const auto it = index_.find(id);
        if (it == index_.end()) {
            return false;
        }
        const auto row = static_cast<std::size_t>(it->second);
        const std::size_t last = ids_.size() - 1;
        if (row != last) {
            ids_[row] = ids_[last];
            weights_[row] = weights_[last];
            flags_[row] = flags_[last];
            cold_[row] = std::move(cold_[last]);
            index_[ids_[row]] = static_cast<std::int32_t>(row);
        }
        ids_.pop_back();
        weights_.pop_back();
        flags_.pop_back();
        cold_.pop_back();
        index_.erase(it);
        return true;
    }

    std::size_t size() const { return ids_.size(); }

    std::int64_t id_at(std::int32_t row) const
    {
        return ids_[static_cast<std::size_t>(row)];
    }
    std::uint64_t& weight_at(std::int32_t row)
    {
        return weights_[static_cast<std::size_t>(row)];
    }
    std::uint64_t weight_at(std::int32_t row) const
    {
        return weights_[static_cast<std::size_t>(row)];
    }
    std::uint8_t& flags_at(std::int32_t row)
    {
        return flags_[static_cast<std::size_t>(row)];
    }
    std::uint8_t flags_at(std::int32_t row) const
    {
        return flags_[static_cast<std::size_t>(row)];
    }
    Cold& cold_at(std::int32_t row)
    {
        return cold_[static_cast<std::size_t>(row)];
    }
    const Cold& cold_at(std::int32_t row) const
    {
        return cold_[static_cast<std::size_t>(row)];
    }

    /** The hot columns, for streaming window scans. */
    const std::vector<std::int64_t>& ids() const { return ids_; }
    const std::vector<std::uint64_t>& weights() const { return weights_; }
    const std::vector<std::uint8_t>& flags() const { return flags_; }

  private:
    std::vector<std::int64_t> ids_;
    std::vector<std::uint64_t> weights_;
    std::vector<std::uint8_t> flags_;
    std::vector<Cold> cold_;
    std::unordered_map<std::int64_t, std::int32_t> index_;
};

}  // namespace nbos::sched

#endif  // NBOS_SCHED_SESSION_TABLE_HPP
