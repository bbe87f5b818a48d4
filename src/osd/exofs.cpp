#include "osd/exofs.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/flags.h"

namespace reo {
namespace {

/// Directory payload: one text line per entry, "D|F <oid-hex> <size> <name>".
std::string SerializeDir(const std::vector<ExofsDirent>& entries) {
  std::ostringstream out;
  out << "#dir\n";
  for (const auto& e : entries) {
    char oid[32];
    std::snprintf(oid, sizeof(oid), "0x%llx",
                  static_cast<unsigned long long>(e.object.oid));
    out << (e.is_directory ? 'D' : 'F') << ' ' << oid << ' ' << e.size << ' '
        << e.name << '\n';
  }
  return out.str();
}

Result<std::vector<ExofsDirent>> ParseDir(std::string_view text, uint64_t pid) {
  std::vector<ExofsDirent> entries;
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != "#dir") {
    return Status{ErrorCode::kCorrupted, "bad directory header"};
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char kind = 0;
    std::string oid_hex, name;
    uint64_t size = 0;
    if (!(ls >> kind >> oid_hex >> size >> name) || (kind != 'D' && kind != 'F')) {
      return Status{ErrorCode::kCorrupted, "bad directory entry"};
    }
    std::optional<uint64_t> oid = ParseHex(oid_hex);
    if (!oid) return Status{ErrorCode::kCorrupted, "bad oid in directory"};
    entries.push_back(ExofsDirent{.name = name,
                                  .object = {pid, *oid},
                                  .is_directory = kind == 'D',
                                  .size = size});
  }
  return entries;
}

}  // namespace

ExofsClient::ExofsClient(OsdInitiator& initiator,
                         std::function<uint64_t(uint64_t)> physical_size)
    : initiator_(initiator), physical_size_(std::move(physical_size)) {
  REO_CHECK(physical_size_ != nullptr);
}

Result<std::vector<std::string>> ExofsClient::SplitPath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status{ErrorCode::kInvalidArgument, "path must be absolute"};
  }
  std::vector<std::string> parts;
  std::string part;
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!part.empty()) {
        parts.push_back(part);
        part.clear();
      }
    } else if (path[i] == ' ' || path[i] == '\n') {
      return Status{ErrorCode::kInvalidArgument, "illegal character in path"};
    } else {
      part += path[i];
    }
  }
  return parts;
}

Status ExofsClient::WritePadded(ObjectId id, std::span<const uint8_t> bytes,
                                SimTime now) {
  uint64_t logical = std::max<uint64_t>(bytes.size(), 1);
  std::vector<uint8_t> padded(static_cast<size_t>(physical_size_(logical)), 0);
  REO_CHECK(padded.size() >= bytes.size());
  std::copy(bytes.begin(), bytes.end(), padded.begin());
  auto resp = initiator_.WriteObject(id, padded, logical, now);
  if (!resp.ok()) {
    return {ErrorCode::kInternal, "OSD write failed: " +
                                      std::string(to_string(resp.sense))};
  }
  return Status::Ok();
}

Status ExofsClient::PersistSuper(SimTime now) {
  char buf[96];
  int n = std::snprintf(buf, sizeof(buf), "%s\nnext_oid 0x%llx\n",
                        std::string(kSuperMagic).c_str(),
                        static_cast<unsigned long long>(next_oid_));
  return WritePadded(kSuperBlockObject,
                     std::span<const uint8_t>(
                         reinterpret_cast<const uint8_t*>(buf),
                         static_cast<size_t>(n)),
                     now);
}

Status ExofsClient::MkFs(uint64_t capacity_bytes, SimTime now) {
  auto resp = initiator_.FormatOsd(capacity_bytes, now);
  if (!resp.ok()) return {ErrorCode::kInternal, "format failed"};
  next_oid_ = 0x20000;
  REO_RETURN_IF_ERROR(PersistSuper(now));
  REO_RETURN_IF_ERROR(StoreDir(kRootDirectoryObject, {}, now));
  mounted_ = true;
  return Status::Ok();
}

Status ExofsClient::Mount(SimTime now) {
  auto resp = initiator_.ReadObject(kSuperBlockObject, now);
  if (!resp.ok()) return {ErrorCode::kNotFound, "no superblock"};
  std::string text(resp.data.begin(), resp.data.end());
  std::istringstream in(text);
  std::string magic;
  std::getline(in, magic);
  if (magic != kSuperMagic) return {ErrorCode::kCorrupted, "bad superblock magic"};
  std::string key, value;
  if (!(in >> key >> value) || key != "next_oid") {
    return {ErrorCode::kCorrupted, "bad superblock body"};
  }
  // The superblock holds whatever its last writer left, possibly another
  // client of the same target: a malformed count is corruption.
  std::optional<uint64_t> next_oid = ParseHex(value);
  if (!next_oid) return {ErrorCode::kCorrupted, "bad superblock next_oid"};
  next_oid_ = *next_oid;
  mounted_ = true;
  return Status::Ok();
}

ObjectId ExofsClient::AllocateOid() {
  return ObjectId{kFirstUserId, next_oid_++};
}

Result<std::vector<ExofsDirent>> ExofsClient::LoadDir(ObjectId dir, SimTime now) {
  auto resp = initiator_.ReadObject(dir, now);
  if (!resp.ok()) return Status{ErrorCode::kNotFound, "directory unreadable"};
  // Strip the physical padding: the logical size attribute holds the
  // actual byte count.
  auto attr = initiator_.GetAttr(dir, kAttrLogicalSize, now);
  std::string text(resp.data.begin(), resp.data.end());
  if (attr.ok() && attr.attr_value.size() == 8) {
    uint64_t logical = 0;
    for (int i = 0; i < 8; ++i) {
      logical |= static_cast<uint64_t>(attr.attr_value[static_cast<size_t>(i)]) << (8 * i);
    }
    text.resize(std::min<size_t>(text.size(), static_cast<size_t>(logical)));
  }
  return ParseDir(text, dir.pid);
}

Status ExofsClient::StoreDir(ObjectId dir, const std::vector<ExofsDirent>& entries,
                             SimTime now) {
  if (!initiator_.ListObjects(dir.pid, now).ok()) {
    return {ErrorCode::kNotFound, "no partition"};
  }
  (void)initiator_.CreateObject(dir, 0, now);  // idempotent for re-store
  std::string text = SerializeDir(entries);
  return WritePadded(dir, {reinterpret_cast<const uint8_t*>(text.data()),
                           text.size()},
                     now);
}

Result<ObjectId> ExofsClient::ResolveDir(const std::string& path, SimTime now) {
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  ObjectId dir = kRootDirectoryObject;
  for (const auto& part : *parts) {
    auto entries = LoadDir(dir, now);
    if (!entries.ok()) return entries.status();
    auto it = std::find_if(entries->begin(), entries->end(),
                           [&](const ExofsDirent& e) { return e.name == part; });
    if (it == entries->end()) return Status{ErrorCode::kNotFound, part};
    if (!it->is_directory) {
      return Status{ErrorCode::kInvalidArgument, part + " is not a directory"};
    }
    dir = it->object;
  }
  return dir;
}

Status ExofsClient::Mkdir(const std::string& path, SimTime now) {
  if (!mounted_) return {ErrorCode::kUnavailable, "not mounted"};
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return {ErrorCode::kAlreadyExists, "/"};
  std::string name = parts->back();
  std::string parent_path = "/";
  for (size_t i = 0; i + 1 < parts->size(); ++i) parent_path += (*parts)[i] + "/";

  auto parent = ResolveDir(parent_path, now);
  if (!parent.ok()) return parent.status();
  auto entries = LoadDir(*parent, now);
  if (!entries.ok()) return entries.status();
  for (const auto& e : *entries) {
    if (e.name == name) return {ErrorCode::kAlreadyExists, name};
  }

  ObjectId dir = AllocateOid();
  REO_RETURN_IF_ERROR(StoreDir(dir, {}, now));
  entries->push_back(ExofsDirent{.name = name, .object = dir, .is_directory = true});
  REO_RETURN_IF_ERROR(StoreDir(*parent, *entries, now));
  return PersistSuper(now);
}

Result<std::vector<ExofsDirent>> ExofsClient::ReadDir(const std::string& path,
                                                      SimTime now) {
  if (!mounted_) return Status{ErrorCode::kUnavailable, "not mounted"};
  auto dir = ResolveDir(path, now);
  if (!dir.ok()) return dir.status();
  return LoadDir(*dir, now);
}

Result<ExofsDirent> ExofsClient::Lookup(const std::string& path, SimTime now) {
  if (!mounted_) return Status{ErrorCode::kUnavailable, "not mounted"};
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) {
    return ExofsDirent{.name = "/", .object = kRootDirectoryObject,
                       .is_directory = true};
  }
  std::string name = parts->back();
  std::string parent_path = "/";
  for (size_t i = 0; i + 1 < parts->size(); ++i) parent_path += (*parts)[i] + "/";
  auto parent = ResolveDir(parent_path, now);
  if (!parent.ok()) return parent.status();
  auto entries = LoadDir(*parent, now);
  if (!entries.ok()) return entries.status();
  for (const auto& e : *entries) {
    if (e.name == name) return e;
  }
  return Status{ErrorCode::kNotFound, name};
}

Status ExofsClient::Unlink(const std::string& path, SimTime now) {
  if (!mounted_) return {ErrorCode::kUnavailable, "not mounted"};
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return {ErrorCode::kInvalidArgument, "cannot unlink /"};
  std::string name = parts->back();
  std::string parent_path = "/";
  for (size_t i = 0; i + 1 < parts->size(); ++i) parent_path += (*parts)[i] + "/";
  auto parent = ResolveDir(parent_path, now);
  if (!parent.ok()) return parent.status();
  auto entries = LoadDir(*parent, now);
  if (!entries.ok()) return entries.status();

  auto it = std::find_if(entries->begin(), entries->end(),
                         [&](const ExofsDirent& e) { return e.name == name; });
  if (it == entries->end()) return {ErrorCode::kNotFound, name};
  if (it->is_directory) {
    auto children = LoadDir(it->object, now);
    if (children.ok() && !children->empty()) {
      return {ErrorCode::kInvalidArgument, "directory not empty"};
    }
  }
  (void)initiator_.RemoveObject(it->object, now);
  entries->erase(it);
  return StoreDir(*parent, *entries, now);
}

Status ExofsClient::WriteFile(const std::string& path,
                              std::span<const uint8_t> payload,
                              uint64_t logical_size, SimTime now) {
  if (!mounted_) return {ErrorCode::kUnavailable, "not mounted"};
  if (payload.size() != logical_size) {
    return {ErrorCode::kInvalidArgument, "payload/logical mismatch"};
  }
  auto parts = SplitPath(path);
  if (!parts.ok()) return parts.status();
  if (parts->empty()) return {ErrorCode::kInvalidArgument, "bad file path"};
  std::string name = parts->back();
  std::string parent_path = "/";
  for (size_t i = 0; i + 1 < parts->size(); ++i) parent_path += (*parts)[i] + "/";
  auto parent = ResolveDir(parent_path, now);
  if (!parent.ok()) return parent.status();
  auto entries = LoadDir(*parent, now);
  if (!entries.ok()) return entries.status();

  auto it = std::find_if(entries->begin(), entries->end(),
                         [&](const ExofsDirent& e) { return e.name == name; });
  ObjectId file;
  if (it == entries->end()) {
    file = AllocateOid();
    (void)initiator_.CreateObject(file, logical_size, now);
    entries->push_back(ExofsDirent{.name = name, .object = file, .size = logical_size});
  } else {
    if (it->is_directory) return {ErrorCode::kInvalidArgument, "is a directory"};
    file = it->object;
    it->size = logical_size;
  }
  REO_RETURN_IF_ERROR(WritePadded(file, payload, now));
  REO_RETURN_IF_ERROR(StoreDir(*parent, *entries, now));
  return PersistSuper(now);
}

Result<std::vector<uint8_t>> ExofsClient::ReadFile(const std::string& path,
                                                   SimTime now) {
  auto ent = Lookup(path, now);
  if (!ent.ok()) return ent.status();
  if (ent->is_directory) return Status{ErrorCode::kInvalidArgument, "is a directory"};
  auto resp = initiator_.ReadObject(ent->object, now);
  if (!resp.ok()) {
    return Status{ErrorCode::kCorrupted,
                  "read failed: " + std::string(to_string(resp.sense))};
  }
  std::vector<uint8_t> data(resp.data.begin(), resp.data.end());
  data.resize(std::min<size_t>(data.size(), static_cast<size_t>(ent->size)));
  return data;
}

}  // namespace reo
