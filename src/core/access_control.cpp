#include "core/access_control.h"

#include <algorithm>

#include "common/error.h"
#include "fs/path.h"

namespace seg::core {

std::string AccessControl::default_group_name(const std::string& user) {
  return "user:" + user;
}

fs::GroupId AccessControl::ensure_user(const std::string& user) {
  // Reject an unindexable name before the group list gains its default
  // group, so a refused request leaves the group store untouched.
  tfm_.check_member_name(user);
  fs::GroupList groups = tfm_.load_group_list();
  const std::string default_name = default_group_name(user);
  std::optional<fs::GroupId> gid = groups.find(default_name);
  if (!gid) {
    gid = groups.create(default_name);
    // The default group owns itself: the user manages their own group.
    groups.add_owner(*gid, *gid);
    tfm_.save_group_list(groups);
  }
  fs::MemberList members = tfm_.member_list_exists(user)
                               ? tfm_.load_member_list(user)
                               : fs::MemberList{};
  if (!members.is_member(*gid)) {
    members.add(*gid);
    tfm_.save_member_list(user, members);
  }
  return *gid;
}

std::vector<fs::GroupId> AccessControl::memberships(
    const std::string& user) const {
  if (!tfm_.member_list_exists(user)) return {};
  return tfm_.load_member_list(user).groups();
}

std::optional<std::uint32_t> AccessControl::effective_permission(
    const std::string& path, fs::GroupId g) const {
  std::string current = path;
  for (;;) {
    if (!acl_exists(current)) return std::nullopt;
    const fs::Acl acl = load_acl(current);
    // Explicit entries (including deny) take precedence over inherited
    // ones (§V-B).
    if (const auto perm = acl.permission(g)) return perm;
    if (!acl.inherit() || fs::is_root(current)) return std::nullopt;
    current = fs::parent(current);
  }
}

bool AccessControl::auth_file(const std::string& user, fs::Perm p,
                              const std::string& path) const {
  if (!acl_exists(path)) return false;
  const fs::Acl acl = load_acl(path);
  const auto groups = memberships(user);
  for (const fs::GroupId g : groups) {
    if (acl.is_owner(g)) return true;  // owners hold every permission
  }
  for (const fs::GroupId g : groups) {
    const auto perm = effective_permission(path, g);
    if (perm && fs::perm_covers(*perm, p)) return true;
  }
  return false;
}

bool AccessControl::auth_owner(const std::string& user,
                               const std::string& path) const {
  if (!acl_exists(path)) return false;
  const fs::Acl acl = load_acl(path);
  for (const fs::GroupId g : memberships(user)) {
    if (acl.is_owner(g)) return true;
  }
  return false;
}

bool AccessControl::auth_group(const std::string& user,
                               const std::string& group) const {
  const fs::GroupList groups = tfm_.load_group_list();
  const auto gid = groups.find(group);
  if (!gid) return false;
  for (const fs::GroupId g : memberships(user)) {
    if (groups.is_owner(*gid, g)) return true;
  }
  return false;
}

bool AccessControl::group_exists(const std::string& group) const {
  return tfm_.load_group_list().find(group).has_value();
}

std::optional<fs::GroupId> AccessControl::group_id(
    const std::string& group) const {
  return tfm_.load_group_list().find(group);
}

std::optional<fs::GroupId> AccessControl::resolve_permission_group(
    const std::string& group) {
  if (const auto gid = group_id(group)) return gid;
  constexpr std::string_view kUserPrefix = "user:";
  if (group.size() > kUserPrefix.size() &&
      group.compare(0, kUserPrefix.size(), kUserPrefix) == 0)
    return ensure_user(group.substr(kUserPrefix.size()));
  return std::nullopt;
}

fs::GroupId AccessControl::create_group(const std::string& group,
                                        const std::string& creator) {
  const fs::GroupId creator_default = ensure_user(creator);
  fs::GroupList groups = tfm_.load_group_list();
  const fs::GroupId gid = groups.create(group);
  groups.add_owner(gid, creator_default);
  tfm_.save_group_list(groups);
  // Algo 1 add_u: the creator becomes the first member.
  fs::MemberList members = tfm_.load_member_list(creator);
  members.add(gid);
  tfm_.save_member_list(creator, members);
  return gid;
}

void AccessControl::add_member(const std::string& user, fs::GroupId group) {
  ensure_user(user);
  fs::MemberList members = tfm_.load_member_list(user);
  members.add(group);
  tfm_.save_member_list(user, members);
}

void AccessControl::remove_member(const std::string& user, fs::GroupId group) {
  if (!tfm_.member_list_exists(user)) return;
  fs::MemberList members = tfm_.load_member_list(user);
  members.remove(group);
  tfm_.save_member_list(user, members);
}

void AccessControl::add_group_owner(fs::GroupId group, fs::GroupId owner) {
  fs::GroupList groups = tfm_.load_group_list();
  groups.add_owner(group, owner);
  tfm_.save_group_list(groups);
}

void AccessControl::remove_group_owner(fs::GroupId group, fs::GroupId owner) {
  fs::GroupList groups = tfm_.load_group_list();
  groups.remove_owner(group, owner);
  tfm_.save_group_list(groups);
}

void AccessControl::delete_group(fs::GroupId group) {
  // "It is inefficient to remove a complete group as the member list of
  // each user has to be checked and possibly modified" — the reverse
  // membership index answers exactly the affected users (O(members) amap
  // pages).
  for (const auto& user : tfm_.group_member_users(group)) {
    fs::MemberList members = tfm_.load_member_list(user);
    if (members.is_member(group)) {
      members.remove(group);
      tfm_.save_member_list(user, members);
    }
  }
  fs::GroupList groups = tfm_.load_group_list();
  groups.remove(group);
  tfm_.save_group_list(groups);
}

fs::Acl AccessControl::load_acl(const std::string& path) const {
  return fs::Acl::parse(tfm_.read(acl_name(path)));
}

void AccessControl::save_acl(const std::string& path, const fs::Acl& acl) {
  tfm_.write(acl_name(path), acl.serialize());
}

bool AccessControl::acl_exists(const std::string& path) const {
  return tfm_.exists(acl_name(path));
}

}  // namespace seg::core
